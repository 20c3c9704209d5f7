"""Shortest-path metric substrate over weighted undirected graphs."""

from repro.metric.doubling import (
    doubling_dimension,
    growth_bound_constant,
    is_doubling_with_dimension,
)
from repro.metric.graph_metric import GraphMetric
from repro.metric.substrate import (
    DEFAULT_ROW_BUDGET_BYTES,
    DENSE_NODE_LIMIT,
    DISTANCE_SLACK,
)

__all__ = [
    "DEFAULT_ROW_BUDGET_BYTES",
    "DENSE_NODE_LIMIT",
    "DISTANCE_SLACK",
    "GraphMetric",
    "doubling_dimension",
    "growth_bound_constant",
    "is_doubling_with_dimension",
]
