"""The shortest-path metric of a weighted undirected graph (paper §2).

:class:`GraphMetric` is the substrate every other module builds on.  It
wraps a connected, edge-weighted, undirected :class:`networkx.Graph`,
normalizes the minimum edge weight to 1 (the paper's w.l.o.g. assumption),
and provides:

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

Since the substrate refactor, ``GraphMetric`` is a *facade* over two
interchangeable distance strategies (see :mod:`repro.metric.substrate`):

* ``strategy="dense"`` — the original eager O(n²) APSP matrix, selected
  automatically for ``n <= DENSE_NODE_LIMIT``;
* ``strategy="lazy"`` — a CSR adjacency core whose per-source rows are
  materialized on demand into a budgeted LRU row store, with
  radius-/size-bounded searches so ball and size-radius queries never
  touch nodes beyond the queried ball.

Both strategies answer every query byte-identically (a property suite in
``tests/test_substrate.py`` enforces this on all fixtures); ``lazy``
additionally scales to n = 10⁴ and beyond because nothing ever allocates
an n×n matrix.  The only documented divergence is :attr:`diameter` above
``EXACT_DIAMETER_LIMIT`` nodes, where the lazy strategy reports an
iterated double-sweep *lower bound* (exact on trees, >= Δ/2 in general)
instead of paying n full searches.

Nodes must be (or are relabelled to) ``0 .. n-1`` integers.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.edits import EditKind, GraphEdit
from repro.core.types import NodeId, PreprocessingError
from repro.metric.substrate import (
    DEFAULT_ROW_BUDGET_BYTES,
    DENSE_NODE_LIMIT,
    DISTANCE_SLACK,
    EXACT_DIAMETER_LIMIT,
    DenseStrategy,
    LazyStrategy,
)

__all__ = [
    "DISTANCE_SLACK",
    "DENSE_NODE_LIMIT",
    "EXACT_DIAMETER_LIMIT",
    "GraphMetric",
    "stretch_of",
]

_ROW_CHUNK = 256


class GraphMetric:
    """Finite metric induced by a connected weighted undirected graph.

    Args:
        graph: A connected undirected :class:`networkx.Graph`.  Edge
            weights are read from the ``weight`` attribute (default 1.0)
            and must be positive.
        normalize: If ``True`` (default), divide all weights by the minimum
            edge weight so the smallest distance is 1, matching the paper's
            normalization (``Δ = max d(u, v)``).
        strategy: ``"dense"`` (eager APSP), ``"lazy"`` (bounded-search
            row store), or ``"auto"`` (default: dense iff
            ``n <= DENSE_NODE_LIMIT``).
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

        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            graph = nx.relabel_nodes(
                graph, {v: i for i, v in enumerate(nodes)}, copy=True
            )
        self._graph = graph
        self._n = graph.number_of_nodes()
        self._normalize = normalize

        weights = [
            float(data.get("weight", 1.0))
            for _, _, data in graph.edges(data=True)
        ]
        if any(w <= 0 for w in weights):
            raise PreprocessingError("edge weights must be positive")
        self._scale = min(weights) if (normalize and weights) else 1.0

        self._row_budget = (
            DEFAULT_ROW_BUDGET_BYTES
            if row_budget_bytes is None
            else int(row_budget_bytes)
        )
        if strategy == "auto":
            strategy = "dense" if self._n <= DENSE_NODE_LIMIT else "lazy"
        matrix = self._csr()
        if strategy == "dense":
            self._strategy = DenseStrategy(matrix, self._n)
            self._diameter: Optional[float] = (
                float(self._strategy._dist.max()) if self._n > 1 else 1.0
            )
            self._diameter_exact = True
        else:
            self._strategy = LazyStrategy(
                matrix, self._n, budget_bytes=self._row_budget
            )
            # Computed on first access — a lazy metric that never needs
            # the diameter never pays for it.
            self._diameter = None
            self._diameter_exact = self._n <= EXACT_DIAMETER_LIMIT

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _csr(self) -> csr_matrix:
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v, data in self._graph.edges(data=True):
            w = float(data.get("weight", 1.0)) / self._scale
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((w, w))
        return csr_matrix((vals, (rows, cols)), shape=(self._n, self._n))

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

        Dense metrics report ``rows_materialized = n`` (the eager APSP
        materializes everything up front); lazy metrics report exactly
        the full rows ever solved — the acceptance counter behind
        "builds at n = 10⁴ with rows materialized ≪ n".
        """
        return self._strategy.stats()

    # -- dense-only raw views (tests, chaos injector back-compat) ------

    @property
    def _dist(self) -> np.ndarray:
        """Full distance matrix — dense strategy only."""
        return self._strategy._dist

    @property
    def _pred(self) -> np.ndarray:
        """Full predecessor matrix — dense strategy only."""
        return self._strategy._pred

    # ------------------------------------------------------------------
    # Incremental maintenance (churn pipeline)
    # ------------------------------------------------------------------

    def detach_graph(self) -> None:
        """Replace the wrapped graph with a private copy.

        Called by ``BuildContext.apply_edit`` *before* mutating a graph
        this metric aliases, so the (now stale) metric keeps a coherent
        pre-edit view for readers that still hold it.
        """
        self._graph = self._graph.copy()

    def _edit_weights(self, edit: GraphEdit) -> List[float]:
        """Normalized edge weights whose relaxations the edit touches."""
        u, v = edit.edge
        weights: List[float] = []
        if edit.kind in (EditKind.WEIGHT, EditKind.EDGE_REMOVE):
            weights.append(
                float(self._graph[u][v].get("weight", 1.0)) / self._scale
            )
        if edit.kind in (EditKind.WEIGHT, EditKind.EDGE_ADD):
            weights.append(float(edit.weight) / self._scale)
        return weights

    def _dirty_sources(self, edit: GraphEdit) -> np.ndarray:
        """Boolean mask of sources whose distance row the edit may touch.

        A source ``s`` is dirty iff the edited edge ``(u, v)`` lies on —
        or ties with — some shortest path from ``s``, under the old
        weight (paths the edit breaks or loosens) or the new weight
        (paths the edit creates or tightens).  Tie-inclusion matters:
        scipy's Dijkstra relaxes strictly, so an edge that never
        improves *or ties* any ``d(s, ·)`` leaves the whole relaxation
        trace — distances and predecessors — bit-identical, which is
        what lets clean rows be spliced through unchanged.

        The test is two-row: the edge is tight (or tie-tight) from ``s``
        iff ``d(s,u) + w <= d(s,v) + slack`` or symmetrically — the
        ``t``-quantified form the dense code used to evaluate over the
        whole matrix reduces to this by the triangle inequality (take
        ``t = v``), so only rows ``u`` and ``v`` are ever consulted.
        """
        u, v = edit.edge
        row_u = self._strategy.row(u)
        row_v = self._strategy.row(v)
        mask = np.zeros(self._n, dtype=bool)
        for w in self._edit_weights(edit):
            mask |= row_u + w <= row_v + DISTANCE_SLACK
            mask |= row_v + w <= row_u + DISTANCE_SLACK
        # The endpoints see the edge directly in their relaxation
        # frontier; always re-examine them (``updated`` downgrades any
        # candidate whose recomputed row turns out unchanged).
        mask[u] = mask[v] = True
        return mask

    def updated(
        self, post_graph: nx.Graph, edit: GraphEdit
    ) -> Tuple["GraphMetric", FrozenSet[NodeId]]:
        """A new metric for ``post_graph`` plus the dirty source set.

        ``post_graph`` must already have ``edit`` applied and must *not*
        be this metric's own graph object (see :meth:`detach_graph`);
        this metric stays a coherent snapshot of the pre-edit network.

        Only the dirty rows are re-run through Dijkstra; clean rows
        (distances, predecessors, and their lazily built per-source
        caches — for lazy metrics, the row-store entries themselves)
        are spliced from this metric, and the result is bit-identical to
        ``GraphMetric(post_graph)`` built cold.  Edits that change the
        node set or the normalization scale dirty everything and fall
        back to a cold build.
        """
        if post_graph is self._graph:
            raise PreprocessingError(
                "updated() needs a detached pre-edit snapshot; call "
                "detach_graph() before mutating a shared graph"
            )
        rebuild_kwargs = dict(
            normalize=self._normalize,
            strategy=self._strategy.kind,
            row_budget_bytes=self._row_budget,
        )
        if edit.changes_node_set:
            rebuilt = GraphMetric(post_graph, **rebuild_kwargs)
            return rebuilt, frozenset(range(rebuilt.n))
        weights = [
            float(data.get("weight", 1.0))
            for _, _, data in post_graph.edges(data=True)
        ]
        if any(w <= 0 for w in weights):
            raise PreprocessingError("edge weights must be positive")
        new_scale = min(weights) if (self._normalize and weights) else 1.0
        if new_scale != self._scale:
            # The normalization divisor changed: every normalized
            # distance in the matrix is scaled, so nothing is reusable.
            rebuilt = GraphMetric(post_graph, **rebuild_kwargs)
            return rebuilt, frozenset(range(rebuilt.n))

        mask = self._dirty_sources(edit)
        candidates = np.nonzero(mask)[0]

        new = object.__new__(GraphMetric)
        new._graph = post_graph
        new._n = self._n
        new._normalize = self._normalize
        new._scale = self._scale
        new._row_budget = self._row_budget
        new_matrix = new._csr()
        if self._strategy.kind == "dense":
            dirty_set = self._updated_dense(new, new_matrix, candidates)
        else:
            dirty_set = self._updated_lazy(new, new_matrix, candidates)
        self._strategy.carry_into(new._strategy, dirty_set)
        return new, dirty_set

    def _updated_dense(
        self,
        new: "GraphMetric",
        new_matrix: csr_matrix,
        candidates: np.ndarray,
    ) -> FrozenSet[NodeId]:
        old = self._strategy
        sub_dist, sub_pred = dijkstra(
            new_matrix,
            directed=True,
            indices=candidates,
            return_predecessors=True,
        )
        if not np.all(np.isfinite(sub_dist)):
            raise PreprocessingError("edit disconnected the graph")
        new_dist = old._dist.copy()
        new_dist[candidates] = sub_dist
        new_pred = old._pred.copy()
        new_pred[candidates] = sub_pred
        # The tie-inclusive mask is conservative; on tie-heavy graphs
        # (unit-weight grids) it can flag nearly every source.  The
        # recomputed rows are in hand, so the *exact* dirty set is
        # cheap: a candidate whose new relaxation trace (distances and
        # predecessors) is bit-identical to the old row never changed —
        # every artifact keyed to it is still exact.
        changed = (sub_dist != old._dist[candidates]).any(axis=1) | (
            sub_pred != old._pred[candidates]
        ).any(axis=1)
        new._strategy = DenseStrategy.from_matrices(new_dist, new_pred)
        new._diameter = float(new_dist.max()) if new._n > 1 else 1.0
        new._diameter_exact = True
        return frozenset(int(s) for s in candidates[changed])

    def _updated_lazy(
        self,
        new: "GraphMetric",
        new_matrix: csr_matrix,
        candidates: np.ndarray,
    ) -> FrozenSet[NodeId]:
        old = self._strategy
        new._strategy = LazyStrategy(
            new_matrix, self._n, budget_bytes=self._row_budget
        )
        new._diameter = None
        new._diameter_exact = self._n <= EXACT_DIAMETER_LIMIT
        dirty: List[int] = []
        was_cached = {s for s, _ in old.store.items()}
        for start in range(0, candidates.shape[0], _ROW_CHUNK):
            chunk = candidates[start : start + _ROW_CHUNK]
            new_dist, new_pred = dijkstra(
                new_matrix,
                directed=True,
                indices=chunk,
                return_predecessors=True,
            )
            if not np.all(np.isfinite(new_dist)):
                raise PreprocessingError("edit disconnected the graph")
            # Old rows: prefer the stored row (what this snapshot's
            # readers actually see), recompute the rest in one batch.
            cached_rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            missing: List[int] = []
            for s in chunk:
                entry = old.store.get(int(s))
                if entry is not None and entry.full:
                    cached_rows[int(s)] = (entry.dist, entry.pred)
                else:
                    missing.append(int(s))
            if missing:
                miss_dist, miss_pred = dijkstra(
                    old._matrix,
                    directed=True,
                    indices=np.asarray(missing, dtype=np.int64),
                    return_predecessors=True,
                )
                for i, s in enumerate(missing):
                    cached_rows[s] = (miss_dist[i], miss_pred[i])
            for i, s in enumerate(chunk):
                old_d, old_p = cached_rows[int(s)]
                if (new_dist[i] != old_d).any() or (new_pred[i] != old_p).any():
                    dirty.append(int(s))
                    if int(s) in was_cached:
                        # Hot source: keep it materialized post-edit.
                        new._strategy.adopt_row(
                            int(s), new_dist[i].copy(), new_pred[i].copy()
                        )
        return frozenset(dirty)

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
        views, next hops) are rebuilt from the corrupted values.  On the
        lazy strategy the row is copied first (copy-on-write), so
        snapshots sharing the entry never see the mutation.
        """
        return self._strategy.mutable_row(u)

    def invalidate_derived(self, u: NodeId) -> None:
        """Drop row ``u``'s derived caches after an in-place mutation."""
        self._strategy.invalidate_derived(u)

    def splice_rows(self, sources: Sequence[NodeId]) -> None:
        """Recompute and splice the SSSP rows of ``sources``, in place.

        The churn repair primitive of :meth:`updated`, exposed for
        integrity healing: each source's distances and predecessors are
        re-derived from the current graph by the same per-row Dijkstra
        a cold build runs, so the spliced rows are bit-identical to a
        from-scratch construction (the property :meth:`updated` already
        relies on when it downgrades unchanged candidate rows).  The
        sources' lazy per-row caches — including memoized next-hop rows
        — are invalidated together.
        """
        rows = sorted({int(s) for s in sources})
        if not rows:
            return
        if not all(0 <= s < self._n for s in rows):
            raise PreprocessingError(
                f"sources must be node ids in [0, {self._n})"
            )
        self._strategy.splice_rows(rows, self._csr())
        if self._strategy.kind == "dense" and self._n > 1:
            # Corrupted entries may have inflated the cached diameter.
            self._diameter = float(self._strategy._dist.max())

    # ------------------------------------------------------------------
    # Basic metric queries
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying (relabelled, weight-normalized-view) graph."""
        return self._graph

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

        Dense metrics (and lazy ones up to ``EXACT_DIAMETER_LIMIT``
        nodes) report the exact value; larger lazy metrics report the
        iterated double-sweep lower bound (see
        ``LazyStrategy.diameter_estimate``) — check
        :attr:`diameter_is_exact`.
        """
        if self._diameter is None:
            estimate, exact = self._strategy.diameter_estimate()
            self._diameter = max(estimate, 1.0) if self._n > 1 else 1.0
            self._diameter_exact = exact
        return self._diameter

    @property
    def diameter_is_exact(self) -> bool:
        """Whether :attr:`diameter` is exact (vs a double-sweep bound)."""
        if self._diameter is None:
            self.diameter
        return self._diameter_exact

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

        On the lazy strategy this materializes (and caches) the full
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
        """Normalized weight of the edge ``(u, v)``."""
        return float(self._graph[u][v].get("weight", 1.0)) / self._scale

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
        ``u`` itself for ``r >= 0``.
        """
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
        return self._strategy.ball_with_distances(u, r)

    def ball_size(self, u: NodeId, r: float) -> int:
        """``|B_u(r)|`` without materializing the node list."""
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
        if len(candidates) == 0:
            raise ValueError("candidates must be non-empty")
        return self._strategy.nearest_among(u, candidates, tol=0.0)

    def nearest_among(
        self,
        u: NodeId,
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> NodeId:
        """Least-id candidate within ``tol`` of the nearest one.

        ``tol = 0`` is :meth:`nearest_in`; ``tol = DISTANCE_SLACK`` is
        the slack-tolerant parent selection the net hierarchy uses.
        ``hint`` bounds the first search radius on the lazy strategy
        (e.g. the net-covering radius ``2^i``, which guarantees a
        candidate within reach); the answer never depends on it.
        """
        if len(candidates) == 0:
            raise ValueError("candidates must be non-empty")
        return self._strategy.nearest_among(u, candidates, tol=tol, hint=hint)

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
        member radius); the result never depends on it.
        """
        return self._strategy.max_distance_to(u, among, hint=hint)

    # ------------------------------------------------------------------
    # Persistence (pipeline disk cache)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the graph plus only *materialized* row state.

        Dense strategies store their matrices; lazy strategies store
        just the full rows currently in the LRU (partial searches and
        derived views are recomputed on demand after unpickling).
        """
        return {
            "graph": self._graph,
            "n": self._n,
            "normalize": self._normalize,
            "scale": self._scale,
            "diameter": self._diameter,
            "diameter_exact": self._diameter_exact,
            "row_budget": self._row_budget,
            "strategy_kind": self._strategy.kind,
            "strategy_state": self._strategy.state(),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._graph = state["graph"]
        self._n = state["n"]
        self._normalize = state["normalize"]
        self._scale = state["scale"]
        self._diameter = state["diameter"]
        self._diameter_exact = state["diameter_exact"]
        self._row_budget = state["row_budget"]
        if state["strategy_kind"] == "dense":
            self._strategy = DenseStrategy.restore(
                state["strategy_state"], self._n
            )
        else:
            self._strategy = LazyStrategy.restore(
                state["strategy_state"], self._csr(), self._n
            )

    def __repr__(self) -> str:
        diameter = self._diameter
        shown = f"{diameter:.3f}" if diameter is not None else "?"
        return (
            f"GraphMetric(n={self._n}, diameter={shown}, "
            f"edges={self._graph.number_of_edges()})"
        )


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
