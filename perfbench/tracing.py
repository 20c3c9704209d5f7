"""Spans around the library's public entry points, for the traced pass.

:func:`install` replaces each entry point named in :data:`LAYERS` with a
wrapper that records a span (name, start, end, parent) in a
:class:`Tracer`; :func:`uninstall` puts the originals back.  Nothing is
wrapped at import time, and only the traced pass of the benchmark ever
calls :func:`install` — untimed passes check :func:`installed` is empty.

Spans are aggregated in memory as they close, per layer and per
(parent, child) edge, so a pass with millions of metric queries keeps a
few hundred counters instead of millions of records.  A layer's self
time is its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.chaos.channel import ChaosNetwork
from repro.churn.driver import ChurnDriver
from repro.churn.stream import EditStream
from repro.engine import BatchRouter
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.packing.ballpacking import BallPacking
from repro.pipeline.context import BuildContext
from repro.resilience.router import ResilientRouter
from repro.runtime import simulator
from repro.runtime.simulator import TrafficSimulator
from repro.schemes.base import LabeledScheme, NameIndependentScheme, RoutingScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.searchtree.tree import SearchTree
from repro.trees import spt
from repro.trees.spt import ShortestPathTree
from repro.trees.tree_router import TreeRouter

_MARK = "__perfbench_span__"

_SCHEMES = (
    LandmarkNameIndependentScheme,
    SimpleNameIndependentScheme,
    NonScaleFreeLabeledScheme,
    ScaleFreeNameIndependentScheme,
    ScaleFreeLabeledScheme,
)


def _scheme_targets(names: Tuple[str, ...], classes) -> List[Tuple[Any, str]]:
    """``(class, attribute)`` for each name a class defines itself."""
    return [(cls, name) for cls in classes for name in names if name in vars(cls)]


#: Span name -> the ``(owner, attribute)`` entry points it wraps.
#: Owners are classes (methods, classmethods, properties) or modules
#: (functions, patched in every loaded ``repro`` module that imported
#: them by name).
LAYERS: Dict[str, List[Tuple[Any, str]]] = {
    "metric.init": [(GraphMetric, "__init__")],
    "metric.bounded": [
        (GraphMetric, name)
        for name in (
            "ball",
            "ball_with_distances",
            "ball_size",
            "size_radius",
            "size_ball",
            "size_ball_with_radius",
            "nearest_in",
            "nearest_among",
            "max_distance_to",
        )
    ],
    "metric.next_hop": [(GraphMetric, "next_hop")],
    "metric.distance": [(GraphMetric, "distance")],
    "metric.rows": [
        (GraphMetric, name)
        for name in ("distances_from", "predecessors_from", "eccentricity", "diameter")
    ],
    "metric.update": [(GraphMetric, "updated"), (GraphMetric, "splice_rows")],
    "nets.hierarchy": [(NetHierarchy, "__init__"), (NetHierarchy, "rebuilt")],
    "packing": [(BallPacking, "__init__"), (BallPacking, "rebuilt")],
    "searchtree.build": [(SearchTree, "__init__"), (SearchTree, "store")],
    "searchtree.search": [(SearchTree, "search")],
    "trees.build": [
        (ShortestPathTree, "__init__"),
        (TreeRouter, "__init__"),
        (spt, "voronoi_partition"),
    ],
    "schemes.build": _scheme_targets(("__init__", "from_context"), _SCHEMES),
    "schemes.route": _scheme_targets(
        ("route", "route_to_name", "route_to_label"),
        _SCHEMES + (NameIndependentScheme, LabeledScheme),
    ),
    "pipeline.context": [
        (BuildContext, name)
        for name in ("metric", "hierarchy", "packing", "scheme", "pairs")
    ],
    "pipeline.compiled": [(BuildContext, "compiled")],
    "pipeline.apply_edit": [(BuildContext, "apply_edit")],
    "engine.compile": [(RoutingScheme, "compile_tables")],
    "engine.route": [(BatchRouter, "route_arrays")],
    "runtime.sim": [(TrafficSimulator, "run")],
    "runtime.expand": [(simulator, "expand_to_physical_path")],
    "chaos.link_faults": [(ChaosNetwork, "link_faults")],
    "resilience.route": [(ResilientRouter, "route")],
    "churn.stream": [(EditStream, "draw")],
    "churn.driver": [(ChurnDriver, "run")],
}


class Tracer:
    """In-memory span aggregator.

    ``layers[name] = [calls, self seconds, total seconds]`` and
    ``edges[(parent, name)] = [calls, total seconds]``; the parent of a
    top-level span is ``""``.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self._stack: List[List[Any]] = []

    def span(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so every call records one span named ``name``."""
        stack = self._stack
        layer = self.layers[name]
        edges = self.edges

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                layer[0] += 1
                layer[1] += elapsed - frame[1]
                layer[2] += elapsed
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed

        setattr(wrapper, _MARK, name)
        return wrapper

    def self_seconds(self) -> float:
        """Sum of every layer's self time (= time inside any span)."""
        return sum(layer[1] for layer in self.layers.values())

    def span_tree(self) -> List[Dict[str, Any]]:
        """The aggregated (parent, child) edges, heaviest first."""
        return [
            {"parent": parent, "span": name, "calls": int(calls), "total_s": total}
            for (parent, name), (calls, total) in sorted(
                self.edges.items(), key=lambda item: -item[1][1]
            )
        ]


def _function_owners(func: Callable) -> List[Any]:
    """Every loaded ``repro`` module that binds ``func`` by name."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        and module is not None
        and any(value is func for value in vars(module).values())
    ]


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point of :data:`LAYERS`; returns the undo list."""
    undo: List[Tuple[Any, str, Any]] = []
    for name, targets in LAYERS.items():
        for owner, attr in targets:
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapped = tracer.span(name, original)
                for module in _function_owners(original):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.span(name, raw.__func__))
            elif isinstance(raw, property):
                wrapped = property(tracer.span(name, raw.fget), raw.fset, raw.fdel)
            else:
                wrapped = tracer.span(name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore the originals recorded by :func:`install`."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def installed() -> List[str]:
    """``owner.attribute`` of every entry point currently wrapped."""
    found = []
    for targets in LAYERS.values():
        for owner, attr in targets:
            raw = inspect.getattr_static(owner, attr)
            func = getattr(raw, "__func__", None) or getattr(raw, "fget", None) or raw
            if hasattr(func, _MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
