"""Deterministic failure schedules: what breaks, when, and how.

A :class:`FailurePlan` is an ordered, immutable list of
:class:`FailureEvent` records.  Plans are pure functions of their
arguments (including the seed), so the same plan can be replayed
bit-identically across processes — the property every resilience
experiment leans on.

Samplers cover the three failure geometries the literature cares about:

* :meth:`FailurePlan.uniform_links` — independent uniform link failures
  (the classic random-failure model);
* :meth:`FailurePlan.correlated_region` — all links inside a metric
  ball fail together (fiber cuts, power outages: geographically
  correlated);
* :meth:`FailurePlan.targeted_links` — take down the highest-load links
  first (adversarial/targeted failures), fed from
  :meth:`~repro.runtime.simulator.SimulationReport.busiest_links`.

The event vocabulary also holds node crashes and weight perturbations
(congestion-driven re-weighting); the churn driver's overlay emits them
(``NODE_DOWN`` for a node that left, ``WEIGHT_SCALE`` for a reweighted
link), but no sampler draws them.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.types import NodeId
from repro.metric.graph_metric import GraphMetric

#: Canonical undirected edge key: endpoints in ascending order.
EdgeKey = Tuple[NodeId, NodeId]


def edge_key(u: NodeId, v: NodeId) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


class EventKind(enum.Enum):
    """What a :class:`FailureEvent` does to the topology."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"
    #: Multiply the link's weight by ``factor`` (absolute, not
    #: cumulative); ``factor=1.0`` restores the original weight.
    WEIGHT_SCALE = "weight-scale"


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """One topology change at a point in time."""

    time: float
    kind: EventKind
    edge: Optional[EdgeKey] = None
    node: Optional[NodeId] = None
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        link_kinds = (
            EventKind.LINK_DOWN,
            EventKind.LINK_UP,
            EventKind.WEIGHT_SCALE,
        )
        if self.kind in link_kinds:
            if self.edge is None:
                raise ValueError(f"{self.kind.value} event needs an edge")
            object.__setattr__(self, "edge", edge_key(*self.edge))
        elif self.node is None:
            raise ValueError(f"{self.kind.value} event needs a node")
        if self.kind is EventKind.WEIGHT_SCALE:
            if self.factor is None or self.factor <= 0:
                raise ValueError("weight-scale needs a positive factor")


class FailurePlan:
    """An immutable, time-ordered schedule of failure events.

    Events are stably sorted by time (ties keep construction order), so
    applying a plan is deterministic regardless of how it was assembled.
    """

    def __init__(self, events: Iterable[FailureEvent] = ()) -> None:
        indexed = list(enumerate(events))
        indexed.sort(key=lambda pair: (pair[1].time, pair[0]))
        self._events: Tuple[FailureEvent, ...] = tuple(
            event for _, event in indexed
        )

    @property
    def events(self) -> Tuple[FailureEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailurePlan):
            return NotImplemented
        return self._events == other._events

    def events_until(self, t: float) -> List[FailureEvent]:
        """All events with ``time <= t``, in application order."""
        return [e for e in self._events if e.time <= t]

    def merge(self, other: "FailurePlan") -> "FailurePlan":
        """Combined plan; same-time events apply self-first."""
        return FailurePlan(list(self._events) + list(other._events))

    def failed_links_at(self, t: float) -> List[EdgeKey]:
        """Links down at time ``t`` (down events minus later up events)."""
        down: dict = {}
        for event in self.events_until(t):
            if event.kind is EventKind.LINK_DOWN:
                down[event.edge] = True
            elif event.kind is EventKind.LINK_UP:
                down.pop(event.edge, None)
        return sorted(down)

    def __repr__(self) -> str:
        kinds: dict = {}
        for event in self._events:
            kinds[event.kind.value] = kinds.get(event.kind.value, 0) + 1
        parts = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
        return f"FailurePlan({len(self._events)} events; {parts})"

    # ------------------------------------------------------------------
    # Samplers (all deterministic in their arguments)
    # ------------------------------------------------------------------

    @staticmethod
    def _sorted_edges(metric: GraphMetric) -> List[EdgeKey]:
        """Every link once, as its :func:`edge_key`, ascending."""
        keys, _ = metric.edge_table()
        ends = zip((keys // metric.n).tolist(), (keys % metric.n).tolist())
        return sorted({edge_key(u, v) for u, v in ends})

    @classmethod
    def uniform_links(
        cls,
        metric: GraphMetric,
        fraction: float,
        seed: int = 0,
        at: float = 0.0,
        recover_at: Optional[float] = None,
    ) -> "FailurePlan":
        """Fail a uniform random ``fraction`` of links at time ``at``.

        At least one link fails for any positive fraction.  With
        ``recover_at`` set, every failed link comes back up then.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        edges = cls._sorted_edges(metric)
        count = max(1, round(fraction * len(edges)))
        rng = random.Random(seed)
        chosen = rng.sample(edges, count)
        events = [
            FailureEvent(at, EventKind.LINK_DOWN, edge=e) for e in chosen
        ]
        if recover_at is not None:
            events += [
                FailureEvent(recover_at, EventKind.LINK_UP, edge=e)
                for e in chosen
            ]
        return cls(events)

    @classmethod
    def correlated_region(
        cls,
        metric: GraphMetric,
        fraction: float,
        seed: int = 0,
        at: float = 0.0,
        recover_at: Optional[float] = None,
        center: Optional[NodeId] = None,
    ) -> "FailurePlan":
        """Fail every link inside one metric ball (a regional outage).

        The epicenter is drawn from the seed (or given); the ball is the
        smallest one around it containing ``fraction`` of all nodes, and
        every link with *both* endpoints inside fails together.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        rng = random.Random(seed)
        if center is None:
            center = rng.randrange(metric.n)
        size = max(2, round(fraction * metric.n))
        region = set(metric.size_ball(center, min(size, metric.n)))
        chosen = [
            e
            for e in cls._sorted_edges(metric)
            if e[0] in region and e[1] in region
        ]
        events = [
            FailureEvent(at, EventKind.LINK_DOWN, edge=e) for e in chosen
        ]
        if recover_at is not None:
            events += [
                FailureEvent(recover_at, EventKind.LINK_UP, edge=e)
                for e in chosen
            ]
        return cls(events)

    @classmethod
    def targeted_links(
        cls,
        ranked_links: Sequence[Tuple[Tuple[NodeId, NodeId], int]],
        count: int,
        at: float = 0.0,
        recover_at: Optional[float] = None,
    ) -> "FailurePlan":
        """Fail the ``count`` highest-load links of a traffic report.

        ``ranked_links`` is the output of
        :meth:`SimulationReport.busiest_links` — directed physical links
        with occupancy counts; they are folded to undirected edges
        (summing both directions) before taking the top ``count``.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        load: dict = {}
        for (a, b), occupancy in ranked_links:
            key = edge_key(a, b)
            load[key] = load.get(key, 0) + occupancy
        ranked = sorted(load.items(), key=lambda kv: (-kv[1], kv[0]))
        chosen = [key for key, _ in ranked[:count]]
        events = [
            FailureEvent(at, EventKind.LINK_DOWN, edge=e) for e in chosen
        ]
        if recover_at is not None:
            events += [
                FailureEvent(recover_at, EventKind.LINK_UP, edge=e)
                for e in chosen
            ]
        return cls(events)
