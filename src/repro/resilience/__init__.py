"""Resilience subsystem (S27): fault injection and degraded routing.

Every scheme in this library routes on a frozen topology; this package
measures what happens when the topology changes *after* preprocessing:

* :mod:`~repro.resilience.failure_plan` — seeded, fully deterministic
  schedules of link-down/up events (the event vocabulary also holds the
  node-crash and weight-perturbation events the churn overlay emits);
* :mod:`~repro.resilience.degraded` — a cheap overlay view of a
  :class:`~repro.metric.graph_metric.GraphMetric` that masks failed
  edges and nodes without rebuilding any tables, including post-failure
  shortest-path distances for honest stretch accounting;
* :mod:`~repro.resilience.router` — hop-by-hop forwarding with *stale*
  routing tables on the degraded topology, under pluggable fallback
  policies, with every packet terminating in a typed
  :class:`~repro.core.types.DeliveryStatus`.
"""

from repro.resilience.degraded import DegradedNetwork
from repro.resilience.failure_plan import (
    EventKind,
    FailureEvent,
    FailurePlan,
)
from repro.resilience.router import (
    FailFast,
    FallbackPolicy,
    LevelEscalation,
    LocalDetour,
    ResilienceReport,
    ResilientRouteResult,
    ResilientRouter,
    make_policy,
)

__all__ = [
    "DegradedNetwork",
    "EventKind",
    "FailFast",
    "FailureEvent",
    "FailurePlan",
    "FallbackPolicy",
    "LevelEscalation",
    "LocalDetour",
    "ResilienceReport",
    "ResilientRouteResult",
    "ResilientRouter",
    "make_policy",
]
