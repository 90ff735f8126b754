"""The benchmark's four workloads: one closed-loop client issuing TPC-H SQL.

Each workload repeats a fixed *cycle* of query names.  A query's share of the
cycle is chosen so that the wall-time median and p90 each fall inside one
query's band of wall times rather than in the gap between two bands, where
the percentile would jump with every small shift in the mix.

The modelled metrics measure the cost model as it stands today.  A change
that reprices a layer redefines them and must re-baseline the benchmark
rather than show up as a regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.driver.resilience import ResiliencePolicy
from repro.workload import queries

import layers

#: The SQL text of every query a workload may name (default table names).
SQL = {
    name: getattr(queries, f"{name}_sql")()
    for name in ("q1", "q3", "q5", "q6", "q7", "q9", "q10", "q12", "q14", "q18")
}


@dataclass(frozen=True)
class Workload:
    """One closed-loop query mix over a generated TPC-H dataset."""

    name: str
    why: str
    scale_factor: float
    #: LINEITEM file count (``run.upload`` gives ORDERS half as many).
    files: int
    cycle: Tuple[str, ...]
    #: Hooks the traced run must see called at least once.
    expected: Tuple[layers.Hook, ...]
    #: Per-layer metrics the traced run must see read exactly zero.
    zero: Tuple[str, ...] = ()
    #: Inject a fresh seeded chaos fault plan into every query.
    chaos: bool = False

    @property
    def queries(self) -> Tuple[str, ...]:
        """Distinct queries of the cycle, in first-use order."""
        return tuple(dict.fromkeys(self.cycle))


#: Chaos settings of the repository's chaos suites: every always-fatal fault
#: kind is capped at two injections, so fourteen attempts always converge.
CHAOS_RATE = 0.2
CHAOS_MAX_COUNT = 2
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)
CHAOS_WORKER_RETRIES = 13


def chaos_seed(workload_seed: int, position: int) -> int:
    """Fault-plan seed of the query at ``position`` of the cycle."""
    return workload_seed * 1_000_003 + position


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="scan_agg",
            why="Q1/Q6 over LINEITEM: time goes to chunk decode, decompression, "
                "scan/aggregate kernels and S3 GETs; no exchange or join, so "
                "changes there should leave it flat",
            scale_factor=0.1,
            files=8,
            # Q6 ~0.12 s, Q1 ~0.3 s: 80% Q6 puts p50 mid-Q6 and p90 mid-Q1.
            cycle=("q6", "q6", "q6", "q6", "q1", "q6", "q6", "q6", "q6", "q1"),
            expected=layers.COMMON_PATH + layers.SCAN_PATH,
            zero=("cloud.s3.put_requests_per_query", "engine.join_s",
                  "exchange.partition_s", "exchange.encode_s", "exchange.decode_s"),
        ),
        Workload(
            name="join_dag",
            why="Q3 binary join plus N-way DAGs Q5/Q9/Q18: time goes to the "
                "exchange write-then-read path (encode, zlib, crc32), hash "
                "joins, and S3 PUTs next to GETs",
            # At SF 0.05 these queries average ~0.5 s, too slow to time the
            # hundred a run needs; at SF 0.02 the exchange still dominates.
            scale_factor=0.02,
            files=4,
            # Q18 < Q3 < Q5 < Q9: Q5 holds 40-80% (p50), Q9 80-100% (p90).
            cycle=("q5", "q18", "q9", "q3", "q5"),
            expected=layers.COMMON_PATH + layers.JOIN_PATH,
            # The write-combined exchange announces offsets through the
            # result queue; the store-level LISTs and HEADs left on this
            # workload come from exchange garbage collection and table scans.
            zero=("exchange.discovery_requests_per_query",),
        ),
        Workload(
            name="interactive_small",
            why="All ten TPC-H SQL texts on a tiny dataset: the fixed per-query "
                "cost (parse, join pricing, invocation tree, SQS, merge, "
                "statistics) dominates",
            scale_factor=0.002,
            files=4,
            # Q10 twice puts p50 mid-band; Q9 and Q18 share the top band (p90).
            cycle=("q6", "q14", "q1", "q12", "q3", "q10", "q10", "q7", "q5",
                   "q9", "q18"),
            expected=layers.COMMON_PATH + layers.SCAN_PATH + layers.JOIN_PATH,
        ),
        Workload(
            name="recovery",
            why="Six queries, each under its own seeded chaos fault plan with "
                "the chaos suites' retry settings: the only workload where "
                "retries, hedges and backoff do work",
            # A tiny dataset fits hundreds of fault plans into one run.
            scale_factor=0.002,
            files=4,
            # Bands Q6 < Q1 < Q3 < Q18 < Q5~Q9: Q18 holds 40-60% (p50), Q5
            # and Q9 60-100% (p90).  Thirty repeats give 300 distinct fault
            # plans, enough that a run's mean over them varies little from
            # seed to seed.
            cycle=("q6", "q1", "q3", "q5", "q9", "q18", "q3", "q5", "q9",
                   "q18") * 30,
            expected=layers.COMMON_PATH + layers.SCAN_PATH + layers.JOIN_PATH,
            chaos=True,
        ),
    )
}
