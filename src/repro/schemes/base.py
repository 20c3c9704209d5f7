"""Common interface and accounting for all routing schemes.

A routing scheme (paper §1) has a centralized *preprocessing step* — the
scheme constructor, which configures per-node routing tables — and a
distributed *routing algorithm*, which must advance a packet using only
the current node's table and the packet header.  Every scheme here keeps
its per-node state in explicit table objects; :meth:`RoutingScheme.table_bits`
audits their size in bits so measured storage can be compared against the
paper's bounds.

Two sub-interfaces mirror the paper's two models:

* :class:`LabeledScheme` — the designer assigns each node a *routing
  label*; ``route`` takes the destination's label.
* :class:`NameIndependentScheme` — nodes carry arbitrary externally-given
  names (a permutation of ``[n]`` by default); ``route`` takes the
  destination's *name*.  The adversarial lower-bound experiments exercise
  non-identity namings.
"""

from __future__ import annotations

import abc
import dataclasses
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.observability.trace import (
    NULL_TRACER,
    RecordingTracer,
    RouteTrace,
    Tracer,
)


#: The scheme under evaluation in this worker process, installed once by
#: :func:`_init_evaluation_worker` (via the pool initializer) instead of
#: being pickled into every chunk payload.
_EVALUATION_SCHEME: Optional["RoutingScheme"] = None


def _init_evaluation_worker(scheme: "RoutingScheme") -> None:
    """Pool initializer: receive the scheme once per worker process."""
    global _EVALUATION_SCHEME
    _EVALUATION_SCHEME = scheme


def _clear_evaluation_worker() -> None:
    """Drop the installed scheme again.

    ``parallel_map``'s serial/one-chunk fallback runs the initializer
    *in the parent process*; without this, the module global would pin a
    full scheme (and through it the APSP matrix) in the parent forever
    after a single ``evaluate(jobs=...)`` call.  Worker processes die
    with their pool, so clearing is only about the in-process fallback.
    """
    global _EVALUATION_SCHEME
    _EVALUATION_SCHEME = None


def _evaluate_pairs_chunk(chunk):
    """Process-pool worker: route one contiguous chunk of pairs.

    Returns ``(stretches, worst)`` where ``worst`` is the chunk's first
    strictly-largest-stretch :class:`RouteResult` — the same tie rule the
    serial loop applies, so merging chunks in order reproduces the serial
    result exactly.  Module-level so it pickles; the scheme itself
    crosses the process boundary once per worker (initializer), not once
    per chunk.
    """
    scheme = _EVALUATION_SCHEME
    assert scheme is not None, "worker initializer did not run"
    stretches: List[float] = []
    worst: Optional[RouteResult] = None
    for u, v in chunk:
        result = scheme.route(u, v)
        stretches.append(result.stretch)
        if worst is None or result.stretch > worst.stretch:
            worst = result
    return stretches, worst


class RoutingScheme(abc.ABC):
    """Abstract base for all routing schemes."""

    #: Human-readable scheme name used in experiment tables.
    name: str = "abstract"

    def __init__(
        self, metric: GraphMetric, params: Optional[SchemeParameters] = None
    ) -> None:
        if params is None:
            params = SchemeParameters()
        self._metric = metric
        self._params = params
        self._table_bits_cache: Optional[List[int]] = None
        self._header_codec = None
        #: Route-decision recorder; the shared no-op singleton unless a
        #: trace_route() call is in flight (see repro.observability).
        self._tracer: Tracer = NULL_TRACER

    @classmethod
    def from_context(
        cls,
        context,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        **kwargs,
    ) -> "RoutingScheme":
        """Construct with substrates resolved through a ``BuildContext``.

        The base implementation is a plain constructor call; schemes
        with expensive substrate dependencies (net hierarchies, ball
        packings, underlying labeled schemes) override this to pull them
        from ``context`` so every scheme in a run shares one copy.
        """
        return cls(metric, params, **kwargs)

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    @property
    def params(self) -> SchemeParameters:
        return self._params

    # -- routing -------------------------------------------------------

    @abc.abstractmethod
    def route(self, source: NodeId, target: NodeId) -> RouteResult:
        """Simulate routing a packet from ``source`` to ``target``.

        ``target`` identifies the destination node; labeled schemes look
        its label up (the sender is assumed to know it, as in the labeled
        model), while name-independent schemes use only its *name*.
        """

    # -- tracing -------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The active route-decision recorder (no-op by default)."""
        return self._tracer

    def trace_route(
        self, source: NodeId, target: NodeId
    ) -> Tuple[RouteResult, RouteTrace]:
        """Route one packet while recording every forwarding decision.

        Installs a :class:`~repro.observability.trace.RecordingTracer`
        for the duration of a single ``route()`` call and restores the
        previous tracer afterwards, so concurrent plain ``route()``
        calls stay zero-overhead.  Replaying the returned trace
        reproduces ``result.path`` and ``result.cost`` exactly (a
        property test in ``tests/test_observability.py`` holds every
        scheme to this).
        """
        trace = RouteTrace(
            scheme=self.name, source=source, destination=target
        )
        previous = self._tracer
        self._tracer = RecordingTracer(trace)
        try:
            result = self.route(source, target)
        finally:
            self._tracer = previous
        trace.delivered_to = result.target
        trace.header_bits = result.header_bits
        return result, trace

    # -- compiled serving ----------------------------------------------

    def compile_tables(self):
        """Lower the built per-node tables for the batch engine.

        Returns the :class:`~repro.engine.compiler.CompiledTables` the
        vectorized :class:`~repro.engine.batch.BatchRouter` sweeps over;
        every compiled route is bit-identical to :meth:`route`.  Raises
        ``EngineUnsupported`` for schemes (or size regimes) without a
        compiled lowering.  Cached per scheme via
        ``BuildContext.compiled``.
        """
        from repro.engine import compile_scheme

        return compile_scheme(self)

    # -- storage accounting --------------------------------------------

    @abc.abstractmethod
    def table_bits(self, v: NodeId) -> int:
        """Total routing-table size at node ``v``, in bits."""

    def header_codec(self):
        """The bit-exact header layout, built on first use and kept.

        Edits build new schemes, which start without one, so it fits the
        scheme's own metric.
        """
        if self._header_codec is None:
            self._header_codec = self._header_layout()
        return self._header_codec

    def _header_layout(self):
        """Build this scheme's codec (see :mod:`repro.runtime.headers`)."""
        raise NotImplementedError(f"scheme {self.name!r} has no header codec")

    def header_bits(self) -> int:
        """Maximum packet-header size used by the scheme, in bits."""
        # The base method, so an instance hiding its codec still routes.
        return RoutingScheme.header_codec(self).total_bits

    def table_bits_vector(self) -> List[int]:
        """Per-node table sizes, computed once and cached.

        Tables are frozen after preprocessing, so the vector never goes
        stale; the aggregate accessors below all read from it instead of
        re-walking every table per call.
        """
        if self._table_bits_cache is None:
            self._table_bits_cache = [
                self.table_bits(v) for v in self._metric.nodes
            ]
        return self._table_bits_cache

    def max_table_bits(self) -> int:
        return max(self.table_bits_vector())

    def avg_table_bits(self) -> float:
        return statistics.fmean(self.table_bits_vector())

    def total_table_bits(self) -> int:
        return sum(self.table_bits_vector())

    # -- evaluation -----------------------------------------------------

    def stretch_guarantee(self) -> Optional[float]:
        """The paper's stretch bound for this scheme, if any.

        Returned as the leading constant only (``9`` or ``1``); the
        ``O(ε)`` slack is applied by the experiment harness.
        """
        return None

    def evaluate(
        self,
        pairs: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
        jobs: int = 1,
    ) -> "SchemeEvaluation":
        """Route every pair and summarize stretch statistics.

        Defaults to all ordered pairs of distinct nodes.  With
        ``jobs > 1`` the pairs are routed by a process pool in
        contiguous ordered chunks; the merged statistics are
        bit-identical to the serial path (same stretch list, same
        first-strictly-greater worst-pair rule).
        """
        if pairs is None:
            pairs = (
                (u, v)
                for u in self._metric.nodes
                for v in self._metric.nodes
                if u != v
            )
        if jobs != 1:
            pairs = list(pairs)
        if jobs != 1 and len(pairs) >= 2:
            from repro.pipeline.parallel import chunk_evenly, parallel_map, resolve_jobs

            chunks = chunk_evenly(pairs, resolve_jobs(jobs))
            try:
                outcomes = parallel_map(
                    _evaluate_pairs_chunk,
                    chunks,
                    jobs=jobs,
                    initializer=_init_evaluation_worker,
                    initargs=(self,),
                )
            finally:
                # The serial/one-chunk fallback runs the initializer in
                # this process; do not leave the scheme pinned here.
                _clear_evaluation_worker()
            stretches = []
            worst = None
            for chunk_stretches, chunk_worst in outcomes:
                stretches.extend(chunk_stretches)
                if chunk_worst is not None and (
                    worst is None or chunk_worst.stretch > worst.stretch
                ):
                    worst = chunk_worst
        else:
            stretches = []
            worst = None
            for u, v in pairs:
                result = self.route(u, v)
                stretches.append(result.stretch)
                if worst is None or result.stretch > worst.stretch:
                    worst = result
        if not stretches:
            raise ValueError("no pairs evaluated")
        return SchemeEvaluation(
            scheme=self.name,
            pair_count=len(stretches),
            max_stretch=max(stretches),
            mean_stretch=statistics.fmean(stretches),
            median_stretch=statistics.median(stretches),
            worst_pair=(worst.source, worst.target) if worst else None,
            max_table_bits=self.max_table_bits(),
            avg_table_bits=self.avg_table_bits(),
            header_bits=self.header_bits(),
        )


@dataclasses.dataclass
class SchemeEvaluation:
    """Summary of routing a set of pairs under one scheme."""

    scheme: str
    pair_count: int
    max_stretch: float
    mean_stretch: float
    median_stretch: float
    worst_pair: Optional[Tuple[NodeId, NodeId]]
    max_table_bits: int
    avg_table_bits: float
    header_bits: int


class LabeledScheme(RoutingScheme):
    """Scheme in the labeled (name-dependent) model."""

    @abc.abstractmethod
    def routing_label(self, v: NodeId) -> int:
        """The designer-assigned routing label of ``v``."""

    @abc.abstractmethod
    def label_bits(self) -> int:
        """Size of one routing label, in bits."""

    @abc.abstractmethod
    def route_to_label(self, source: NodeId, label: int) -> RouteResult:
        """Route given only the destination's label (the model's API)."""

    def walk_to_label(self, source: NodeId, label: int) -> Tuple[List[NodeId], float]:
        """``route_to_label`` as a bare ``(path, cost)``: one leg of a
        scheme layered on this one, which needs no result of its own.
        The path ends at the node that took delivery."""
        result = self.route_to_label(source, label)
        return result.path, result.cost

    def route(self, source: NodeId, target: NodeId) -> RouteResult:
        return self.route_to_label(source, self.routing_label(target))


class NameIndependentScheme(RoutingScheme):
    """Scheme in the name-independent model.

    Args:
        metric: The network.
        params: Accuracy parameters.
        naming: Bijection node id -> external name (identity by default).
            The scheme may not embed information in names; it must work
            for *any* naming, which the lower-bound experiments exploit.
    """

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(metric, params)
        if naming is None:
            naming = list(metric.nodes)
        naming = list(naming)
        if sorted(naming) != list(range(metric.n)):
            raise PreprocessingError(
                "naming must be a permutation of 0..n-1"
            )
        self._name_of: List[int] = naming
        self._node_with_name: Dict[int, NodeId] = {
            name: v for v, name in enumerate(naming)
        }

    def name_of(self, v: NodeId) -> int:
        """The external name of node ``v``."""
        return self._name_of[v]

    def node_with_name(self, name: int) -> NodeId:
        """Inverse naming (test/experiment helper, not used to route)."""
        return self._node_with_name[name]

    @abc.abstractmethod
    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        """Route given only the destination's external name."""

    def route(self, source: NodeId, target: NodeId) -> RouteResult:
        return self.route_to_name(source, self.name_of(target))
