"""DynamoDB-like key-value store.

Lambada uses a serverless key-value store for small amounts of shared state —
for example worker heart-beats, exchange-phase bookkeeping, or small
broadcast values.  The simulated service supports named tables with
string-keyed items (JSON-serialisable dictionaries), conditional puts,
and atomic counters, and meters read/write request units.
"""

from __future__ import annotations

import copy
import json
import threading
from typing import Any, Dict, List, Optional

from repro.cloud.clock import VirtualClock
from repro.cloud.metering import MeteringLedger
from repro.errors import ConditionalCheckFailedError, NoSuchTableError

#: Maximum item size (400 KB on DynamoDB).
MAX_ITEM_BYTES = 400 * 1000


class KeyValueStore:
    """A minimal multi-table key-value store with DynamoDB-like semantics."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[MeteringLedger] = None,
    ):
        self.clock = clock or VirtualClock()
        self.ledger = ledger if ledger is not None else MeteringLedger()
        self._tables: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._lock = threading.RLock()

    # -- table management ----------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create a table; creating an existing table is a no-op."""
        with self._lock:
            self._tables.setdefault(name, {})

    def delete_table(self, name: str) -> None:
        """Delete a table and all items."""
        with self._lock:
            self._require_table(name)
            del self._tables[name]

    def list_tables(self) -> List[str]:
        """Names of all tables."""
        with self._lock:
            return sorted(self._tables)

    def _require_table(self, name: str) -> None:
        if name not in self._tables:
            raise NoSuchTableError(name)

    # -- item operations -----------------------------------------------------

    def put_item(
        self,
        table: str,
        key: str,
        item: Dict[str, Any],
        if_not_exists: bool = False,
    ) -> None:
        """Store an item under ``key``.

        With ``if_not_exists=True`` the put fails with
        :class:`~repro.errors.ConditionalCheckFailedError` if the key is
        already present (used for leader election / idempotency guards).
        """
        encoded = json.dumps(item)
        if len(encoded.encode("utf-8")) > MAX_ITEM_BYTES:
            raise ValueError(f"item of {len(encoded)} bytes exceeds the DynamoDB limit")
        with self._lock:
            self._require_table(table)
            if if_not_exists and key in self._tables[table]:
                raise ConditionalCheckFailedError(key)
            self._tables[table][key] = copy.deepcopy(item)
            self.ledger.record("dynamodb", "write_units", 1)

    def get_item(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        """Fetch an item, or ``None`` if the key is absent."""
        with self._lock:
            self._require_table(table)
            self.ledger.record("dynamodb", "read_units", 1)
            item = self._tables[table].get(key)
            return copy.deepcopy(item) if item is not None else None

    def delete_item(self, table: str, key: str) -> None:
        """Delete an item; deleting a missing key is a no-op."""
        with self._lock:
            self._require_table(table)
            self._tables[table].pop(key, None)
            self.ledger.record("dynamodb", "write_units", 1)

    def scan(self, table: str) -> Dict[str, Dict[str, Any]]:
        """Return a copy of all items in the table keyed by their key."""
        with self._lock:
            self._require_table(table)
            self.ledger.record("dynamodb", "read_units", max(1, len(self._tables[table])))
            return copy.deepcopy(self._tables[table])

    def increment(self, table: str, key: str, field: str, amount: int = 1) -> int:
        """Atomically add ``amount`` to ``item[field]`` and return the new value.

        The item is created with ``{field: amount}`` if it does not exist.
        """
        with self._lock:
            self._require_table(table)
            item = self._tables[table].setdefault(key, {})
            item[field] = int(item.get(field, 0)) + amount
            self.ledger.record("dynamodb", "write_units", 1)
            return item[field]

    def item_count(self, table: str) -> int:
        """Number of items in a table."""
        with self._lock:
            self._require_table(table)
            return len(self._tables[table])
