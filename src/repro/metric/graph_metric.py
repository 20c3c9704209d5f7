"""The shortest-path metric of a weighted undirected graph (paper §2).

:class:`GraphMetric` is the substrate every other module builds on.  It
reads a connected, edge-weighted, undirected :class:`networkx.Graph`
once, into an edge array that is from then on its only record of the
graph (editing the graph afterwards changes nothing the metric answers,
pickles or is keyed by), normalizes the minimum edge weight to 1 (the
paper's w.l.o.g. assumption), and provides:

* exact shortest-path distances ``d(u, v)`` (scipy Dijkstra);
* metric balls ``B_u(r)`` — with the paper's convention that ball
  membership uses ``d(u, x) <= r``;
* *size-radii* ``r_u(j)``: the radius of the smallest ball around ``u``
  containing ``2^j`` nodes, together with the corresponding node set (ties
  broken by node id so that ``|B_u(r_u(j))| = 2^j`` exactly — the paper
  implicitly assumes general position; see DESIGN.md);
* next-hop extraction: the first edge of a shortest path from ``u`` toward
  any target, with least-id tie-breaking so that every node's view of
  shortest paths is globally consistent.

``GraphMetric`` is a *facade* over one per-source row store (see
:mod:`repro.metric.substrate`), filled one of two ways:

* ``strategy="dense"`` — every row solved up front by one batched
  Dijkstra and kept resident, selected automatically for
  ``n <= DENSE_NODE_LIMIT``;
* ``strategy="lazy"`` — rows materialized on demand into a budgeted LRU
  store, with radius-/size-bounded searches so ball and size-radius
  queries never touch nodes beyond the queried ball.

Every query has one implementation, so both fillings answer
byte-identically (``tests/test_substrate.py`` also holds them to an
independent oracle on all fixtures); ``lazy`` scales to n = 10⁴ and
beyond because nothing ever allocates an n×n matrix.

Nodes must be (or are relabelled to) ``0 .. n-1`` integers.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from repro.core.types import NodeId, PreprocessingError
from repro.metric.substrate import (
    DEFAULT_ROW_BUDGET_BYTES,
    DENSE_NODE_LIMIT,
    DISTANCE_SLACK,
    LazyStrategy,
)

__all__ = [
    "DISTANCE_SLACK",
    "DENSE_NODE_LIMIT",
    "GraphMetric",
    "stretch_of",
]


class GraphMetric:
    """Finite metric induced by a connected weighted undirected graph.

    Args:
        graph: A connected undirected :class:`networkx.Graph`.  Edge
            weights are read from the ``weight`` attribute (default 1.0)
            and must be positive.
        normalize: If ``True`` (default), divide all weights by the minimum
            edge weight so the smallest distance is 1, matching the paper's
            normalization (``Δ = max d(u, v)``).
        strategy: ``"dense"`` (every row solved up front), ``"lazy"``
            (rows on demand, bounded searches), or ``"auto"`` (default:
            dense iff ``n <= DENSE_NODE_LIMIT``).
        row_budget_bytes: LRU byte budget for lazily materialized rows
            (lazy strategy only; default ``DEFAULT_ROW_BUDGET_BYTES``).

    Raises:
        PreprocessingError: If the graph is empty, disconnected, has a
            non-positive edge weight, or ``strategy`` is unknown.
    """

    def __init__(
        self,
        graph: nx.Graph,
        normalize: bool = True,
        strategy: str = "auto",
        row_budget_bytes: Optional[int] = None,
    ) -> None:
        if strategy not in ("auto", "dense", "lazy"):
            raise PreprocessingError(
                f"strategy must be 'auto', 'dense', or 'lazy', got {strategy!r}"
            )
        if graph.number_of_nodes() == 0:
            raise PreprocessingError("graph is empty")
        if not nx.is_connected(graph):
            raise PreprocessingError("graph must be connected")

        graph, _ = _relabelled(graph)
        self._n = graph.number_of_nodes()
        self._normalize = normalize

        edges = _edge_array(graph)
        self._scale = _scale_of(edges, normalize)
        self._set_edges(edges)

        self._row_budget = (
            DEFAULT_ROW_BUDGET_BYTES
            if row_budget_bytes is None
            else int(row_budget_bytes)
        )
        if strategy == "auto":
            strategy = "dense" if self._n <= DENSE_NODE_LIMIT else "lazy"
        if strategy == "dense":
            self._strategy = LazyStrategy.filled(self._csr(), self._n)
        else:
            self._strategy = LazyStrategy(
                self._csr(), self._n, budget_bytes=self._row_budget
            )
        # Computed on first access — a metric that never needs the
        # diameter never pays for it.
        self._diameter: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _set_edges(self, edges: np.ndarray) -> None:
        """Keep a read-only copy of the edge array and, per node,
        ``neighbour -> weight``.  The copy owns its memory, so no view
        :attr:`edges` hands out can be made writeable again."""
        edges = np.array(edges)
        edges.flags.writeable = False
        self._edges = edges
        self._weights: List[Dict[int, float]] = [{} for _ in range(self._n)]
        ends = edges[:, :2].astype(np.int64).tolist()
        for (u, v), w in zip(ends, (edges[:, 2] / self._scale).tolist()):
            self._weights[u][v] = w
            self._weights[v][u] = w

    def _csr(self) -> csr_matrix:
        """Normalized adjacency, both directions of every edge.

        Entries go in edge-array (``graph.edges``) order, ``(u, v)``
        before ``(v, u)``: that order fixes Dijkstra's predecessor
        tie-breaking.
        """
        edges = self._edges
        u = edges[:, 0].astype(np.int64)
        v = edges[:, 1].astype(np.int64)
        return csr_matrix(
            (
                np.repeat(edges[:, 2] / self._scale, 2),
                (np.column_stack((u, v)).ravel(), np.column_stack((v, u)).ravel()),
            ),
            shape=(self._n, self._n),
        )

    # ------------------------------------------------------------------
    # Strategy introspection
    # ------------------------------------------------------------------

    @property
    def strategy(self) -> str:
        """``"dense"`` or ``"lazy"`` — the resolved substrate strategy."""
        return self._strategy.kind

    @property
    def row_budget_bytes(self) -> int:
        """Configured LRU byte budget for lazily materialized rows."""
        return self._row_budget

    def substrate_stats(self) -> Dict[str, object]:
        """Row-store counters: rows materialized, hits/misses, bytes.

        ``rows_materialized`` counts the full rows this metric ever
        solved: ``n`` for a freshly built dense metric (every row up
        front), and for lazy metrics the acceptance counter behind
        "builds at n = 10⁴ with rows materialized ≪ n".
        """
        return self._strategy.stats()

    # ------------------------------------------------------------------
    # Edits (churn pipeline)
    # ------------------------------------------------------------------

    def updated(self, post_graph: nx.Graph) -> "GraphMetric":
        """A cold build of ``post_graph`` with this metric's settings.

        Nothing in the library calls it: an edit drops every cached
        metric, and the next ``BuildContext.metric`` builds it cold.
        The name stays only because every perfbench pass resolves each
        entry point listed in ``perfbench/tracing.py`` with
        ``inspect.getattr_static``, so a missing one fails every
        benchmark run.
        """
        return GraphMetric(
            post_graph,
            normalize=self._normalize,
            strategy=self.strategy,
            row_budget_bytes=self._row_budget,
        )

    # ------------------------------------------------------------------
    # Table-integrity auditing (chaos subsystem)
    # ------------------------------------------------------------------

    def row_digest(self, u: NodeId) -> str:
        """Checksum of node ``u``'s routing-table basis.

        Every scheme ultimately forwards through this metric's per-node
        rows (distances/predecessors drive ``next_hop``), so a digest
        over those rows *is* a checksum of node ``u``'s stored table
        state.  Used by :mod:`repro.chaos.audit` to detect in-memory
        corruption.
        """
        return self._strategy.row_digest(u)

    def mutable_row(self, u: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        """Writable ``(distances, predecessors)`` views of row ``u``.

        The chaos fault injector's entry point: it mutates stored table
        state in place, deliberately bypassing the query API.  Call
        :meth:`invalidate_derived` afterwards so derived caches (sorted
        views, next hops) are rebuilt from the corrupted values.  The
        row is copied first (copy-on-write), so arrays read from the
        row before the write never see the mutation.
        """
        return self._strategy.mutable_row(u)

    def invalidate_derived(self, u: NodeId) -> None:
        """Drop row ``u``'s derived caches after an in-place mutation."""
        self._strategy.invalidate_derived(u)

    def splice_rows(self, sources: Sequence[NodeId]) -> None:
        """Recompute and splice the SSSP rows of ``sources``, in place.

        The integrity-healing primitive: each source's distances and
        predecessors are re-derived from the metric's own edge array by
        the same per-row Dijkstra a cold build runs, so the spliced rows
        are bit-identical to a from-scratch construction.  The sources'
        lazy per-row caches — including memoized next-hop rows — are
        invalidated together.
        """
        rows = sorted({int(s) for s in sources})
        if not rows:
            return
        if not all(0 <= s < self._n for s in rows):
            raise PreprocessingError(
                f"sources must be node ids in [0, {self._n})"
            )
        self._strategy.splice_rows(rows, self._csr())
        # Corrupted rows may have inflated the cached diameter.
        self._diameter = None

    # ------------------------------------------------------------------
    # Basic metric queries
    # ------------------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """The graph's edges as read-only ``(m, 3)`` float rows
        ``u, v, weight``: relabelled ids, raw (unnormalized) weights, in
        the order the adjacency was built from."""
        return self._edges.view()

    @property
    def scale(self) -> float:
        """Weight divisor applied by normalization (1.0 when disabled).

        Part of the pipeline cache identity: two metrics over the same
        graph are interchangeable iff their scales agree (with
        ``normalize=False`` the scale is pinned to 1.0).
        """
        return self._scale

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def nodes(self) -> range:
        """All node ids, ``0 .. n-1``."""
        return range(self._n)

    @property
    def diameter(self) -> float:
        """Largest shortest-path distance (= normalized diameter Δ).

        Exact at every ``n`` on both fillings: the largest entry of any
        row, found by ``LazyStrategy.diameter`` (weighted iFUB), which
        reads a few dozen rows on doubling graphs (about half of them on
        plain grids) and installs none.  Computed on first read and
        clamped to at least 1.
        """
        if self._diameter is None:
            self._diameter = max(self._strategy.diameter(), 1.0)
        return self._diameter

    @property
    def log_diameter(self) -> int:
        """``ceil(log2 Δ)`` — index of the top r-net level (at least 0)."""
        if self.diameter <= 1.0:
            return 0
        return int(math.ceil(math.log2(self.diameter) - DISTANCE_SLACK))

    @property
    def log_n(self) -> int:
        """``ceil(log2 n)`` (at least 0)."""
        if self._n <= 1:
            return 0
        return int(math.ceil(math.log2(self._n) - DISTANCE_SLACK))

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Shortest-path distance ``d(u, v)``."""
        return self._strategy.distance(u, v)

    def distances_from(self, u: NodeId) -> np.ndarray:
        """Vector of distances from ``u`` to every node.

        On a lazy metric this materializes (and caches) the full
        row; prefer the bounded queries (``ball_with_distances``,
        ``nearest_among``, ``max_distance_to``) when only part of the
        row is needed.
        """
        return self._strategy.row(u)

    def predecessors_from(self, u: NodeId) -> np.ndarray:
        """Predecessor row of the canonical shortest-path tree at ``u``.

        ``predecessors_from(u)[v]`` is the neighbour of ``v`` on the
        canonical path from ``u`` to ``v`` (``-9999`` at ``u`` itself,
        scipy's convention).  Materializes the full row on lazy metrics;
        used by landmark-style schemes that store whole landmark trees.
        """
        return self._strategy.pred_row(u)

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Normalized weight of the edge ``(u, v)`` (``KeyError`` if none).

        Read from per-node maps built once from the edge array the
        adjacency comes from, so every hop costs exactly what the
        searches relaxed.
        """
        return self._weights[u][v]

    def neighbors(self, u: NodeId) -> KeysView[NodeId]:
        """The neighbours of ``u``, in edge-array order (a read-only
        view with O(1) membership tests)."""
        return self._weights[u].keys()

    def edge_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every directed edge as a sorted key ``u·n + v`` and its
        normalized weight (:meth:`edge_weight`), as aligned arrays."""
        ends = self._edges[:, :2].astype(np.int64)
        keys = np.concatenate(
            (ends[:, 0] * self._n + ends[:, 1], ends[:, 1] * self._n + ends[:, 0])
        )
        weights = np.tile(self._edges[:, 2] / self._scale, 2)
        order = np.argsort(keys, kind="stable")
        return keys[order], weights[order]

    def eccentricity(self, u: NodeId) -> float:
        """Largest distance from ``u`` to any node.

        Needs only node ``u``'s own row — on the lazy strategy this is
        one single-source search, never the full APSP.
        """
        return self._strategy.eccentricity(u)

    # ------------------------------------------------------------------
    # Balls and size-radii (paper §2)
    # ------------------------------------------------------------------

    def ball(self, u: NodeId, r: float) -> List[NodeId]:
        """``B_u(r)``: nodes within distance ``r`` of ``u`` (inclusive).

        The result is sorted by ``(distance, id)``; it always contains
        ``u`` itself for ``r >= 0`` and is empty for ``r < 0``.  A NaN
        radius raises :class:`ValueError`.
        """
        if _negative_radius(r):
            return []
        ids, _ = self._strategy.ball_with_distances(u, r)
        return [int(x) for x in ids]

    def ball_with_distances(
        self, u: NodeId, r: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``B_u(r)`` as ``(ids, distances)`` arrays, (distance, id)-sorted.

        The bounded-search workhorse: consumers that used to scan a full
        ``distances_from`` row (r-net construction, ring blocks, oracle
        labels) read exactly the ball they need instead.
        """
        if _negative_radius(r):
            return np.empty(0, dtype=np.int64), np.empty(0)
        return self._strategy.ball_with_distances(u, r)

    def ball_size(self, u: NodeId, r: float) -> int:
        """``|B_u(r)|`` without materializing the node list."""
        if _negative_radius(r):
            return 0
        return self._strategy.ball_size(u, r)

    def size_radius(self, u: NodeId, size: int) -> float:
        """``r_u``: distance to the ``size``-th nearest node (incl. u).

        This is the paper's ``r_u(j)`` evaluated at ``size = 2^j``; the
        ball of the ``size`` nearest nodes (ties by id) has exactly
        ``size`` members and radius ``size_radius(u, size)``.
        """
        if not 1 <= size <= self._n:
            raise ValueError(f"size must be in [1, {self._n}], got {size}")
        return self._strategy.size_radius(u, size)

    def size_ball(self, u: NodeId, size: int) -> List[NodeId]:
        """The ``size`` nearest nodes to ``u`` (ties by id), sorted."""
        if not 1 <= size <= self._n:
            raise ValueError(f"size must be in [1, {self._n}], got {size}")
        return [int(x) for x in self._strategy.size_ball(u, size)]

    def size_ball_with_radius(
        self, u: NodeId, size: int
    ) -> Tuple[float, List[NodeId]]:
        """``(size_radius(u, size), size_ball(u, size))`` in one search."""
        if not 1 <= size <= self._n:
            raise ValueError(f"size must be in [1, {self._n}], got {size}")
        radius = self._strategy.size_radius(u, size)
        return radius, [int(x) for x in self._strategy.size_ball(u, size)]

    def size_ball_with_hops(
        self, u: NodeId, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The size ball as ``(ids, distances, first hops)`` arrays.

        Entries are in ``(distance, id)`` order, starting with ``u``
        itself, and ``hops[i] == next_hop(u, ids[i])``.  On the lazy
        strategy this is one size-bounded search plus one vectorized
        pass over the ball — the per-node vicinity table in a single
        call.
        """
        if not 1 <= size <= self._n:
            raise ValueError(f"size must be in [1, {self._n}], got {size}")
        return self._strategy.size_ball_with_hops(u, size)

    def r_u(self, u: NodeId, j: int) -> float:
        """The paper's ``r_u(j)``: radius of the size-``2^j`` ball at u.

        ``j`` may range over ``[0, log2(n)]``; ``2^j`` is clamped to ``n``
        at the top so that ``r_u(log n)`` is always defined (it equals the
        eccentricity of ``u`` when ``n`` is a power of two).
        """
        size = min(self._n, 1 << j)
        return self.size_radius(u, size)

    def nearest_in(
        self, u: NodeId, candidates: Sequence[NodeId]
    ) -> NodeId:
        """Nearest candidate to ``u`` with least-id tie-breaking."""
        return self.nearest_among(u, candidates)

    def nearest_among(
        self,
        u: NodeId,
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> NodeId:
        """Least-id candidate within ``tol`` of the nearest one.

        The one-source case of :meth:`nearest_many`.
        """
        return int(self.nearest_many([u], candidates, tol=tol, hint=hint)[0])

    def nearest_many(
        self,
        sources: Sequence[NodeId],
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> np.ndarray:
        """For each source, the least-id candidate within ``tol`` of its
        nearest one (an int64 array aligned with ``sources``).

        Each source's distances come from its own row: ``d(u, v)`` and
        ``d(v, u)`` may differ in the last bit, and reading the
        candidate's row would flip exact ties.  ``tol = 0`` is
        :meth:`nearest_in`; ``tol = DISTANCE_SLACK`` is the
        slack-tolerant parent selection the net hierarchy uses.
        ``hint`` bounds the first search radius on the lazy strategy
        (e.g. the net-covering radius ``2^i``, which guarantees a
        candidate within reach); the answer never depends on it.  A hint
        that is not a positive number raises :class:`ValueError`.
        """
        if len(candidates) == 0:
            raise ValueError("candidates must be non-empty")
        _check_hint(hint)
        return self._strategy.nearest_many(
            sources, candidates, tol=tol, hint=hint
        )

    # ------------------------------------------------------------------
    # Shortest paths and next hops
    # ------------------------------------------------------------------

    def next_hop(self, u: NodeId, v: NodeId) -> NodeId:
        """Neighbour of ``u`` on the canonical shortest path to ``v``.

        Canonical paths are read off the Dijkstra predecessor tree of
        source ``u``, so they are exact (never distance-tolerance based)
        and consistent: all paths from ``u`` form a tree.  First hops
        are extracted for a whole row in one vectorized pass, memoized
        per source in the same store as the distance rows and
        invalidated together by :meth:`splice_rows`.

        Raises:
            RouteFailure: If ``u``'s stored predecessor row is not a
                tree (a corrupted row that closes a cycle).
        """
        if u == v:
            return u
        return self._strategy.next_hop(u, v)

    def next_hops_from(self, u: NodeId) -> np.ndarray:
        """First hops from ``u`` toward every node (``[u]`` is ``u``).

        ``next_hops_from(u)[v] == next_hop(u, v)`` for every ``v``.
        Materializes the full row on lazy metrics; the returned array
        is the memoized row itself, so callers must not mutate it.
        """
        return self._strategy.next_hops_from(u)

    def row_blocks(
        self, sources: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Full distance rows and first hops of ``sources``, in blocks.

        ``sources`` is an increasing array of node ids (every node by
        default).  Yields ``(block, dist, hops)`` with ``block`` a run
        of those ids, ``dist[i] == distances_from(block[i])`` and
        ``hops[i] == next_hops_from(block[i])``.  Rows not yet resident
        are solved one block per batched search, and the blocks are the
        solve's own arrays: a lazy store smaller than the rows asked for
        still solves each row once.
        """
        if sources is None:
            sources = np.arange(self._n)
        return self._strategy.row_blocks(np.asarray(sources, dtype=np.int64))

    def row_entries(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``d(s, t)`` and ``next_hop(s, t)`` for each pair, each read
        from its source's own full row, in one :meth:`row_blocks` pass
        over the distinct sources: a node's stored table entries come
        from its own row."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        ranked = sources[order]
        dist = np.empty(sources.shape[0])
        hops = np.empty(sources.shape[0], dtype=np.int64)
        for block, block_dist, block_hops in self.row_blocks(np.unique(sources)):
            lo, hi = np.searchsorted(ranked, (block[0], block[-1] + 1))
            k = order[lo:hi]
            at = np.searchsorted(block, sources[k])
            dist[k] = block_dist[at, targets[k]]
            hops[k] = block_hops[at, targets[k]]
        return dist, hops

    def shortest_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """The canonical shortest path from ``u`` to ``v`` (inclusive)."""
        path = [u]
        current = u
        while current != v:
            current = self.next_hop(current, v)
            path.append(current)
        return path

    # ------------------------------------------------------------------
    # Set-level helpers used by packings and search trees
    # ------------------------------------------------------------------

    def ball_set(self, u: NodeId, r: float) -> FrozenSet[NodeId]:
        """``B_u(r)`` as a frozenset (cached-friendly shape)."""
        return frozenset(self.ball(u, r))

    def max_distance_to(
        self,
        u: NodeId,
        among: Iterable[NodeId],
        hint: Optional[float] = None,
    ) -> float:
        """``max_{x in among} d(u, x)``.

        ``hint`` (lazy strategy) bounds the first search radius when the
        caller knows how far ``among`` can reach (e.g. a search tree's
        member radius); the result never depends on it.  A hint that is
        not a positive number raises :class:`ValueError`.
        """
        _check_hint(hint)
        return self._strategy.max_distance_to(u, among, hint=hint)

    # ------------------------------------------------------------------
    # Persistence (pipeline disk cache)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the edge array plus only *materialized* row state.

        The edge array is the metric's whole record of its graph: the
        adjacency, the per-node weight maps and any row solved after
        unpickling all come from it.  The full rows currently in the
        store are kept (all of them on a dense metric); partial searches
        and derived views are recomputed on demand after unpickling.
        """
        return {
            "edges": self._edges,
            "n": self._n,
            "normalize": self._normalize,
            "scale": self._scale,
            "diameter": self._diameter,
            "row_budget": self._row_budget,
            "strategy_state": self._strategy.state(),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._n = state["n"]
        self._normalize = state["normalize"]
        self._scale = state["scale"]
        self._diameter = state["diameter"]
        self._row_budget = state["row_budget"]
        self._set_edges(state["edges"])
        self._strategy = LazyStrategy.restore(
            state["strategy_state"], self._csr(), self._n
        )

    def __repr__(self) -> str:
        diameter = self._diameter
        shown = f"{diameter:.3f}" if diameter is not None else "?"
        return (
            f"GraphMetric(n={self._n}, diameter={shown}, "
            f"edges={len(self._edges)})"
        )


def _negative_radius(r: float) -> bool:
    """Whether ``B_u(r)`` is empty (``r < 0``); a NaN radius is an error."""
    if math.isnan(r):
        raise ValueError("ball radius must not be NaN")
    return r < 0.0


def _check_hint(hint: Optional[float]) -> None:
    """A search hint is a first radius, so it must be a positive number
    (a zero or NaN hint would never grow)."""
    if hint is not None and not hint > 0.0:
        raise ValueError(f"hint must be a positive number, got {hint!r}")


def _relabelled(graph: nx.Graph) -> Tuple[nx.Graph, list]:
    """``graph`` on nodes ``0 .. n-1``, and its labels in sorted order.

    The i-th sorted label becomes node i; a graph already on
    ``0 .. n-1`` is returned as it is, not copied.
    """
    nodes = sorted(graph.nodes())
    if nodes != list(range(len(nodes))):
        graph = nx.relabel_nodes(
            graph, {v: i for i, v in enumerate(nodes)}, copy=True
        )
    return graph, nodes


def _edge_array(graph: nx.Graph) -> np.ndarray:
    """``(m, 3)`` float rows ``u, v, weight`` in ``graph.edges`` order."""
    flat = np.fromiter(
        (
            x
            for u, v, data in graph.edges(data=True)
            for x in (u, v, data.get("weight", 1.0))
        ),
        np.float64,
    )
    return flat.reshape(-1, 3)


def _scale_of(edges: np.ndarray, normalize: bool) -> float:
    """The normalization divisor: the least edge weight, or 1.0."""
    if (edges[:, 2] <= 0).any():
        raise PreprocessingError("edge weights must be positive")
    return float(edges[:, 2].min()) if normalize and len(edges) else 1.0


def stretch_of(metric: GraphMetric, path: Sequence[NodeId]) -> Tuple[float, float]:
    """Cost of walking ``path`` leg-by-leg and the direct distance.

    Each leg is charged the shortest-path distance between consecutive
    path entries.  Returns ``(cost, optimal)``.
    """
    if len(path) < 1:
        raise ValueError("path must be non-empty")
    cost = 0.0
    for a, b in zip(path, path[1:]):
        cost += metric.distance(a, b)
    return cost, metric.distance(path[0], path[-1])
