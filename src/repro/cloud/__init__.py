"""Simulated serverless cloud substrate.

This package provides in-process equivalents of the AWS services that Lambada
builds on:

* :class:`~repro.cloud.s3.ObjectStore` — S3-like object storage with ranged
  GETs, request accounting, per-bucket rate limits, and a per-worker
  bandwidth model.
* :class:`~repro.cloud.dynamodb.KeyValueStore` — DynamoDB-like key-value
  store for small metadata.
* :class:`~repro.cloud.sqs.QueueService` — SQS-like message queues used for
  result collection.
* :class:`~repro.cloud.lambda_service.LambdaService` — a FaaS runtime that
  executes registered handlers in-process while modelling memory-proportional
  CPU shares, cold starts, invocation latency, and per-duration billing.
* :class:`~repro.cloud.metering.MeteringLedger` — running totals of every
  billable dimension, used by the cost analyses.

All services share a :class:`~repro.cloud.clock.VirtualClock` so that the
benchmark harness can report latencies at the paper's scale without running in
real time.
"""

from repro.cloud.clock import VirtualClock
from repro.cloud.metering import MeteringLedger
from repro.cloud.pricing import PriceList, DEFAULT_PRICES
from repro.cloud.s3 import ObjectStore, ObjectMetadata, GetResult
from repro.cloud.dynamodb import KeyValueStore
from repro.cloud.sqs import QueueService, Message
from repro.cloud.lambda_service import (
    LambdaService,
    FunctionConfig,
    InvocationResult,
    cpu_share_for_memory,
)
from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.environment import CloudEnvironment

__all__ = [
    "VirtualClock",
    "MeteringLedger",
    "PriceList",
    "DEFAULT_PRICES",
    "ObjectStore",
    "ObjectMetadata",
    "GetResult",
    "KeyValueStore",
    "QueueService",
    "Message",
    "LambdaService",
    "FunctionConfig",
    "InvocationResult",
    "cpu_share_for_memory",
    "BandwidthModel",
    "TransferPlan",
    "CloudEnvironment",
]
