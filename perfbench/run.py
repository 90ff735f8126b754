#!/usr/bin/env python3
"""Repository benchmark: TPC-H SQL through ``repro.connect()`` / ``Session.sql()``.

One closed-loop client (the next query starts when the previous one
returns) drives a workload's query cycle in ``serial`` execution mode, with
no extra threads, and checks every result against the NumPy reference that
``scripts/run_tpch_experiments.py`` builds.  A query that raises or returns
a wrong result fails the run (exit code 1).  Run from the repository root::

    python3 perfbench/run.py --workload scan_agg --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced queries.
``--trace 1`` alternates untraced and traced passes over the cycle and
reports per-layer metrics from spans recorded around the calls into each
layer (see ``layers.py``); it fails if a hook the workload must reach
records no call.  ``--mode-check`` runs each of the workload's queries once
in ``serial`` and once in ``processes`` mode, untimed, and exits 1 if their
modelled latency or cost disagree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, the seed and the workload's inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.cloud.faults import chaos_plan  # noqa: E402
import run_tpch_experiments as experiments  # noqa: E402
from run_tpch_experiments import DAG_QUERIES, build_cases, tables_equal  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CHAOS_MAX_COUNT,
    CHAOS_POLICY,
    CHAOS_RATE,
    CHAOS_WORKER_RETRIES,
    SQL,
    WORKLOADS,
    Workload,
    chaos_seed,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest queries an untraced run times: leaves ten samples above p90.
MIN_QUERIES = 100
#: Name of the benchmark's root span around each ``Session.sql`` call.
ROOT_SPAN = "perfbench.query"

END_TO_END_UNITS = {
    "query_wall_p50_s": "s",
    "query_wall_p90_s": "s",
    "queries_per_s": "1/s",
    "cpu_s_per_query": "s",
    "modelled_latency_mean_s": "s",
    "modelled_latency_p90_s": "s",
    "modelled_cost_usd_per_query": "USD",
    "setup_s": "s",
}

NOTE = (
    "modelled_* metrics measure the cost model as it stands today; a change "
    "that reprices a layer redefines them and re-baselines the benchmark"
)


@dataclass
class Outcome:
    """One ``Session.sql`` call: its clocks, statistics and verdict."""

    query: str
    wall: float
    cpu: float
    statistics: Optional[object]
    #: ``None`` when the call raised, else whether the result was correct.
    correct: Optional[bool]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: ``share`` of the values are at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def execute_kwargs(workload: Workload) -> Dict[str, int]:
    return {"max_worker_retries": CHAOS_WORKER_RETRIES} if workload.chaos else {}


def upload(store, workload: Workload, seed: int):
    """Generate the seven relations into ``store`` as ``build_stack`` does.

    The generators are looked up on ``run_tpch_experiments``, where the
    traced run's ``GENERATE`` hooks wrap them.
    """
    common = {"scale_factor": workload.scale_factor, "seed": seed}
    datasets = {
        "lineitem": experiments.generate_lineitem_dataset(
            store, num_files=workload.files, **common),
        "orders": experiments.generate_orders_dataset(
            store, num_files=max(2, workload.files // 2), **common),
    }
    for relation in ("customer", "supplier", "part", "nation", "region"):
        generate = getattr(experiments, f"generate_{relation}_dataset")
        datasets[relation] = generate(store, **common)
    return datasets


def reference_tables(workload: Workload, seed: int):
    """The raw relations the checker's NumPy references are computed from."""
    generators = {
        "lineitem": experiments.LineitemGenerator,
        "orders": experiments.OrdersGenerator,
        "customer": experiments.CustomerGenerator,
        "supplier": experiments.SupplierGenerator,
        "part": experiments.PartGenerator,
        "nation": experiments.NationGenerator,
        "region": experiments.RegionGenerator,
    }
    return {
        relation: generator(workload.scale_factor, seed=seed).generate()
        for relation, generator in generators.items()
    }


def set_up(workload: Workload, seed: int, mode: str = "serial"):
    """Connect, generate and upload the dataset, register it, warm up.

    The checker's reference tables are not built here, so ``setup_s``
    times only what a user of the system waits for.
    """
    policy = {"resilience_policy": CHAOS_POLICY} if workload.chaos else {}
    session = repro.connect(execution_mode=mode, **policy)
    datasets = upload(session.env.s3, workload, seed)
    for dataset in datasets.values():
        session.register(dataset)
    for name in workload.queries:
        session.sql(SQL[name], **execute_kwargs(workload))
    return session, datasets


class Client:
    """The closed-loop client: issues the cycle's queries and checks them."""

    def __init__(self, session, workload: Workload, seed: int, references):
        self.session = session
        self.workload = workload
        self.seed = seed
        self.references = references
        self.errors: List[str] = []

    def run(self, position: int, tracer: Optional[Tracer] = None) -> Outcome:
        """Issue the query at ``position`` of the cycle."""
        workload = self.workload
        name = workload.cycle[position]
        env = self.session.env
        if workload.chaos:
            env.install_fault_plan(chaos_plan(
                seed=chaos_seed(self.seed, position),
                rate=CHAOS_RATE,
                max_count=CHAOS_MAX_COUNT,
            ))
        result = None
        wall = time.perf_counter()
        cpu = time.process_time()
        span = None
        if tracer is not None:
            span = tracer.begin(ROOT_SPAN)
        try:
            result = self.session.sql(SQL[name], **execute_kwargs(workload))
        except Exception:  # counted as a failed query, not a crash
            self.errors.append(f"{name}@{position}: {traceback.format_exc()}")
        finally:
            if span is not None:
                tracer.end(span)
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if workload.chaos:
                env.install_fault_plan(None)
        if result is None:
            return Outcome(name, wall, cpu, None, None)
        correct = tables_equal(self.references[name], result.table, name in DAG_QUERIES)
        if not correct:
            self.errors.append(f"{name}@{position}: wrong result")
        return Outcome(name, wall, cpu, result.statistics, correct)

    def cycle(self, tracer: Optional[Tracer] = None) -> List[Outcome]:
        """One pass over the whole cycle."""
        return [self.run(position, tracer) for position in range(len(self.workload.cycle))]


def references_for(workload: Workload, seed: int, datasets):
    cases = build_cases(datasets, reference_tables(workload, seed))
    return {name: cases[name][1] for name in workload.queries}


def tally(outcomes: Sequence[Outcome]) -> Dict[str, object]:
    """A run is correct only if every query returned the right result.

    A query that raised counts as failed, on every workload: the chaos
    settings of ``recovery`` always let a query converge.
    """
    failed = sum(1 for o in outcomes if o.correct is not True)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed}


def measure(workload: Workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics."""
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        session, datasets = set_up(workload, seed)
        setup_times.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            session.close()
            del session, datasets
            gc.collect()
    try:
        client = Client(session, workload, seed, references_for(workload, seed, datasets))
        del datasets
        gc.collect()
        cycle = len(workload.cycle)
        minimum = max(MIN_QUERIES, cycle)
        outcomes: List[Outcome] = []
        start = time.perf_counter()
        while len(outcomes) < minimum or time.perf_counter() - start < seconds:
            outcome = client.run(len(outcomes) % cycle)
            if len(outcomes) >= cycle:
                # Only the first cycle's statistics are read.
                outcome.statistics = None
            outcomes.append(outcome)
            if len(outcomes) == minimum:
                # The metering ledger keeps a record of every request, so
                # memory grows with each query: reading the high-water mark
                # after a fixed count keeps it independent of run speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
    finally:
        session.close()

    walls = [o.wall for o in outcomes]
    # Modelled metrics come from the first cycle only: each query's modelled
    # figures are deterministic, so they repeat exactly for a given seed.  A
    # query that raised has no statistics, but it has failed the run.
    first = [o.statistics for o in outcomes[:cycle] if o.statistics is not None]
    latencies = [s.latency_seconds for s in first]
    metrics = {
        "query_wall_p50_s": statistics.median(walls),
        "query_wall_p90_s": percentile(walls, 0.9),
        "queries_per_s": len(outcomes) / elapsed,
        "cpu_s_per_query": sum(o.cpu for o in outcomes) / len(outcomes),
        "modelled_latency_mean_s": statistics.fmean(latencies),
        "modelled_latency_p90_s": percentile(latencies, 0.9),
        "modelled_cost_usd_per_query": statistics.fmean(s.cost_total for s in first),
        "setup_s": statistics.median(setup_times),
    }
    summary = tally(outcomes)
    by_wall = sorted(outcomes, key=lambda o: o.wall)
    extra = {
        # Reported but not bounded: failed_fraction reads 0 on a correct run,
        # and peak memory moves with the dataset seed (a multi-key merge sizes
        # its scratch arrays by the product of the key columns' cardinalities).
        "failed_fraction": summary["failed"] / summary["attempted"],
        "peak_rss_mb": peak_rss_mb,
        "queries_timed": len(outcomes),
        # Which query's band the wall percentiles fall in.
        "p50_query": by_wall[(len(by_wall) - 1) // 2].query,
        "p90_query": by_wall[math.ceil(0.9 * len(by_wall)) - 1].query,
        "median_wall_s_by_query": {
            name: statistics.median(o.wall for o in outcomes if o.query == name)
            for name in workload.queries
        },
        "measured_s": elapsed,
        "setup_samples_s": setup_times,
    }
    return summary, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extra, client


def trace(workload: Workload, seed: int, seconds: float):
    """Traced run: per-layer metrics, alternating untraced and traced cycles."""
    tracer = Tracer()
    with layers.installed(tracer, layers.GENERATE):
        session, datasets = set_up(workload, seed)
    generate_s = layers.generate_seconds(tracer)
    missing = layers.missing_calls(tracer, layers.GENERATE)
    tracer.reset()
    try:
        client = Client(session, workload, seed, references_for(workload, seed, datasets))
        del datasets
        gc.collect()
        untraced: List[Outcome] = []
        traced: List[Outcome] = []
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            untraced += client.cycle()
            with layers.installed(tracer, layers.QUERY_HOOKS):
                traced += client.cycle(tracer)
            now = time.perf_counter()
            if now + (now - pair_start) - start > seconds:
                break
    finally:
        session.close()

    missing += layers.missing_calls(tracer, workload.expected)
    first = traced[:len(workload.cycle)]
    stats = [o.statistics for o in first if o.statistics is not None]
    metrics = layers.layer_metrics(tracer, ROOT_SPAN, stats, len(traced))
    metrics["workload.generate_s"] = generate_s
    metrics["trace.overhead_ratio"] = (
        sum(o.wall for o in traced) / sum(o.wall for o in untraced)
    )
    summary = tally(untraced + traced)
    metrics["run.failed_fraction"] = summary["failed"] / summary["attempted"]
    for name in missing:
        client.errors.append(f"hook recorded no call: {name}")
    nonzero = [name for name in workload.zero if metrics[name] != 0]
    for name in nonzero:
        client.errors.append(f"{name} must read 0 on {workload.name}: {metrics[name]}")
    if missing or nonzero:
        summary["correct"] = False
    extra = {"traced_queries": len(traced), "layer_map": layers.LAYER_MAP}
    units = {name: layers.unit_of(name) for name in metrics}
    return summary, {k: (v, units[k]) for k, v in metrics.items()}, extra, client


def mode_check(workload: Workload, seed: int) -> int:
    """Run each query once per execution mode; report modelled disagreements."""
    figures = {}
    for mode in ("serial", "processes"):
        session, _ = set_up(workload, seed, mode=mode)
        try:
            for name in workload.queries:
                stats = session.sql(SQL[name], **execute_kwargs(workload)).statistics
                figures[mode, name] = {
                    "latency_s": stats.latency_seconds,
                    "cost_usd": stats.cost_total,
                    "cost_lambda_duration_usd": stats.cost_lambda_duration,
                    "hedges": stats.resilience.hedges_launched,
                    "get_requests": stats.get_requests,
                    "bytes_read": stats.bytes_read,
                }
        finally:
            session.close()
    disagreements = []
    for name in workload.queries:
        serial, processes = figures["serial", name], figures["processes", name]
        for key in ("latency_s", "cost_usd"):
            if not math.isclose(serial[key], processes[key], rel_tol=1e-9):
                disagreements.append({"query": name, "serial": serial,
                                      "processes": processes})
                break
    for entry in disagreements:
        print(f"DISAGREE {workload.name} {entry['query']}: "
              f"serial {entry['serial']} processes {entry['processes']}")
    print(json.dumps({
        "mode_check": workload.name,
        "seed": seed,
        "queries": list(workload.queries),
        "disagreements": disagreements,
    }))
    return 1 if disagreements else 0


def host() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode-check", action="store_true")
    arguments = parser.parse_args(argv)
    workload = WORKLOADS[arguments.workload]

    if arguments.mode_check:
        return mode_check(workload, arguments.seed)
    run = trace if arguments.trace else measure
    summary, metrics, extra, client = run(workload, arguments.seed, arguments.seconds)

    for line in client.errors[:5]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed": arguments.seed,
        "trace": arguments.trace,
        "host": host(),
        "scale_factor": workload.scale_factor,
        "lineitem_files": workload.files,
        "cycle_length": len(workload.cycle),
        "query_shares": {name: workload.cycle.count(name) / len(workload.cycle)
                         for name in workload.queries},
        "clients": 1,
        "execution_mode": "serial",
        "note": NOTE,
        **extra,
    }))
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    if not arguments.trace:
        rows.append(("failed_fraction", extra["failed_fraction"], "1"))
        rows.append(("peak_rss_mb", extra["peak_rss_mb"], "MB"))
    for name, value, unit in rows:
        print(f"{workload.name:<18} {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({
        **summary,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
