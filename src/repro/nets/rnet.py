"""Greedy r-net construction (paper Definition 2.1).

An ``r``-net of a metric space ``(V, d)`` is a subset ``Y ⊆ V`` such that

1. (covering) every point of ``V`` is within distance ``r`` of ``Y``, and
2. (packing) any two points of ``Y`` are at distance at least ``r``.

The paper constructs nets greedily, optionally *expanding* an existing
coarser net (its §2 top-down hierarchy construction: "recursively
construct the 2^i-net Y_i by greedily expanding Y_{i+1}").  We scan
candidates in increasing node-id order, which makes every net — and hence
every downstream structure — deterministic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.types import NodeId
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric


def greedy_rnet(
    metric: GraphMetric,
    r: float,
    seed: Optional[Sequence[NodeId]] = None,
    universe: Optional[Sequence[NodeId]] = None,
) -> List[NodeId]:
    """Greedily construct an ``r``-net, optionally expanding ``seed``.

    Args:
        metric: The ambient metric.
        r: Net radius (must be positive).
        seed: Points that must belong to the net.  They must themselves be
            pairwise at distance >= r (as when expanding a ``2r``-net);
            this is the caller's obligation and is not checked.
        universe: The point set to cover; defaults to all nodes.  The net
            returned consists of ``seed`` plus points drawn from
            ``universe`` in increasing id order.

    Returns:
        Sorted list of net points covering ``universe``.
    """
    if r <= 0:
        raise ValueError(f"net radius must be positive, got {r}")
    if universe is None:
        universe = list(metric.nodes)
    members: List[NodeId] = sorted(seed) if seed else []

    # mindist[v] = distance from v to the current net.  Only distances
    # below ~r ever matter to the accept test, so each member charges a
    # radius-r ball instead of a full row: nodes beyond the ball keep
    # mindist = inf (>= r - slack), and nodes inside get the exact same
    # distance the full row would supply — decision-identical, but
    # bounded work on the lazy substrate.
    mindist = np.full(metric.n, np.inf)
    for p in members:
        ids, d = metric.ball_with_distances(p, r)
        mindist[ids] = np.minimum(mindist[ids], d)

    for v in sorted(universe):
        if mindist[v] >= r - DISTANCE_SLACK:
            members.append(v)
            ids, d = metric.ball_with_distances(v, r)
            mindist[ids] = np.minimum(mindist[ids], d)
    return sorted(set(members))


def is_rnet(
    metric: GraphMetric,
    r: float,
    net: Sequence[NodeId],
    universe: Optional[Iterable[NodeId]] = None,
) -> bool:
    """Check both r-net properties (covering and packing) exactly."""
    if not net:
        return False
    if universe is None:
        universe = metric.nodes
    net = list(net)
    net_set = set(net)
    # Packing: pairwise distances >= r.  A violating pair is closer
    # than r, so it shows up inside a radius-r ball — no full rows.
    for u in net:
        ids, d = metric.ball_with_distances(u, r)
        for x, dist in zip(ids, d):
            if x != u and int(x) in net_set and dist < r - DISTANCE_SLACK:
                return False
    # Covering: every universe point within r of the net.
    mindist = np.full(metric.n, np.inf)
    for p in net:
        ids, d = metric.ball_with_distances(p, r)
        mindist[ids] = np.minimum(mindist[ids], d)
    return all(mindist[v] <= r + DISTANCE_SLACK for v in universe)
