"""Shared plumbing for the experiment modules.

Provides the standard graph suite (the network families motivated in the
paper's introduction), deterministic source-destination pair sampling,
scheme construction with shared substrates, and a small ASCII table
type used by every experiment's ``main()``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple, Type

import networkx as nx

from repro.core.params import SchemeParameters
from repro.core.types import NodeId
from repro.graphs.generators import (
    exponential_path,
    grid_2d,
    grid_with_holes,
    random_geometric,
)
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext
from repro.pipeline.sampling import PairExclusion, sample_ordered_pairs
from repro.schemes.base import RoutingScheme


def standard_suite(scale: str = "small") -> List[Tuple[str, nx.Graph]]:
    """The graph families every comparison experiment runs on.

    Args:
        scale: ``"small"`` (fast, used by tests and default benches) or
            ``"medium"`` (used for scaling studies).
    """
    if scale == "small":
        return [
            ("grid 8x8", grid_2d(8)),
            ("grid-with-holes 9x9", grid_with_holes(9, hole_fraction=0.25, seed=7)),
            ("geometric n=64", random_geometric(64, seed=11)),
            ("exp-path n=16", exponential_path(16)),
        ]
    if scale == "medium":
        return [
            ("grid 16x16", grid_2d(16)),
            ("grid-with-holes 18x18", grid_with_holes(18, hole_fraction=0.25, seed=7)),
            ("geometric n=256", random_geometric(256, seed=11)),
            ("exp-path n=32", exponential_path(32)),
        ]
    raise ValueError(f"unknown scale {scale!r}")


def sample_pairs(
    metric: GraphMetric,
    count: int,
    seed: int = 0,
    exclude: Optional[PairExclusion] = None,
) -> List[Tuple[NodeId, NodeId]]:
    """Deterministic sample of ordered source-destination pairs.

    Samples without replacement when possible; falls back to all
    (allowed) pairs for tiny graphs.  ``exclude`` rejects individual
    ordered pairs, e.g. ``lambda u, v: v in metric.neighbors(u)`` to
    measure multi-hop routes only.  Delegates to the shared sampler in
    :mod:`repro.pipeline.sampling`, so the same seed yields the same
    pairs here and in the traffic simulator.
    """
    return sample_ordered_pairs(metric.n, count, seed=seed, exclude=exclude)


def build_scheme(
    scheme_cls: Type[RoutingScheme],
    metric: GraphMetric,
    params: Optional[SchemeParameters] = None,
    context: Optional[BuildContext] = None,
    **kwargs,
) -> RoutingScheme:
    """Construct a scheme with default parameters.

    With ``context`` set, substrates (and the scheme itself) are pulled
    from — and recorded in — the shared build cache.
    """
    if context is not None:
        return context.scheme(scheme_cls, metric, params, **kwargs)
    if params is None:
        params = SchemeParameters()
    return scheme_cls(metric, params, **kwargs)


@dataclasses.dataclass
class ExperimentTable:
    """A printable experiment result: header, rows, and notes."""

    title: str
    columns: List[str]
    rows: List[List[object]]
    notes: List[str] = dataclasses.field(default_factory=list)

    def formatted(self) -> str:
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.3f}"
            return str(cell)

        grid = [self.columns] + [[fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in grid) for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(
            name.ljust(widths[i]) for i, name in enumerate(grid[0])
        )
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in grid[1:]:
            lines.append(
                " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def row_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: title, columns, row records, and notes."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.row_dicts(),
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def print(self) -> None:
        print(self.formatted())
        print()
