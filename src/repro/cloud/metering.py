"""Usage metering and billing ledger.

Every simulated cloud service records billable events (requests, bytes,
durations) into a :class:`MeteringLedger`.  The ledger converts usage into
dollar cost using a :class:`~repro.cloud.pricing.PriceList` and produces the
per-service breakdowns that the paper's cost analyses report.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict

from repro.cloud.pricing import DEFAULT_PRICES, PriceList


class MeteringLedger:
    """Running usage totals per billing dimension, and their dollar cost.

    A dimension is a dotted name such as ``"s3.get_requests"`` or
    ``"lambda.gib_seconds"``; amounts are in its natural unit (requests,
    GiB-seconds, bytes...).  Only the totals are kept, so a long session's
    ledger stays the same size however many requests it meters.
    """

    def __init__(self, prices: PriceList = DEFAULT_PRICES):
        self.prices = prices
        self._totals: Dict[str, float] = defaultdict(float)
        # Services record concurrently when the driver runs the fleet through
        # its thread pool; the read-modify-write on the totals needs a lock.
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def record(self, service: str, dimension: str, amount: float) -> None:
        """Add ``amount`` to the running total of ``service.dimension``."""
        if amount < 0:
            raise ValueError(f"usage amount must be non-negative, got {amount}")
        with self._lock:
            self._totals[f"{service}.{dimension}"] += amount

    # -- introspection ------------------------------------------------------

    def total(self, service: str, dimension: str) -> float:
        """Total usage of ``service.dimension`` recorded so far."""
        with self._lock:
            return self._totals.get(f"{service}.{dimension}", 0.0)

    def reset(self) -> None:
        """Clear all recorded usage (e.g. between benchmark repetitions)."""
        with self._lock:
            self._totals.clear()

    # -- billing ------------------------------------------------------------

    def cost_breakdown(self) -> Dict[str, float]:
        """Dollar cost per billing dimension.

        Only the dimensions that have a price attached contribute; unknown
        dimensions (e.g. ``s3.bytes_read``, which AWS does not bill for
        intra-region traffic) are reported with a cost of zero so that they
        still show up in the breakdown.
        """
        prices = self.prices
        with self._lock:
            totals = dict(self._totals)
        breakdown: Dict[str, float] = {}
        for key, amount in sorted(totals.items()):
            if key == "s3.get_requests":
                breakdown[key] = prices.s3_get_cost(int(amount))
            elif key in ("s3.put_requests", "s3.list_requests"):
                breakdown[key] = prices.s3_put_cost(int(amount))
            elif key == "lambda.gib_seconds":
                breakdown[key] = amount * prices.lambda_gib_second
            elif key == "lambda.invocations":
                breakdown[key] = prices.lambda_invocation_cost(int(amount))
            elif key == "sqs.requests":
                breakdown[key] = prices.sqs_cost(int(amount))
            elif key == "dynamodb.read_units":
                breakdown[key] = int(amount) / 1e6 * prices.dynamodb_read_per_million
            elif key == "dynamodb.write_units":
                breakdown[key] = int(amount) / 1e6 * prices.dynamodb_write_per_million
            else:
                breakdown[key] = 0.0
        return breakdown

    def total_cost(self) -> float:
        """Total dollar cost of all recorded usage."""
        return sum(self.cost_breakdown().values())

    def cost_of_service(self, service: str) -> float:
        """Total dollar cost attributed to one service (prefix match)."""
        return sum(
            cost
            for key, cost in self.cost_breakdown().items()
            if key.startswith(service + ".")
        )

    def merge(self, other: "MeteringLedger") -> None:
        """Fold another ledger's totals into this one."""
        with other._lock:
            totals = dict(other._totals)
        with self._lock:
            for key, amount in totals.items():
                self._totals[key] += amount
