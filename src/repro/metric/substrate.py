"""Two-tier distance substrate: dense eager APSP vs lazy bounded search.

:class:`~repro.metric.graph_metric.GraphMetric` used to *be* the dense
eager APSP matrix — O(n²) memory and O(n · m log n) preprocessing before
the first query, which caps every experiment at a few hundred nodes.
The paper's constructions, however, only ever consult *balls*
``B_u(r)``, *size-radii* ``r_u(j)``, and next hops along canonical
shortest paths — all answerable from bounded single-source searches.

This module provides the two interchangeable strategies behind the
``GraphMetric`` facade:

* :class:`DenseStrategy` — the original eager APSP (scipy Dijkstra, full
  distance + predecessor matrices).  Selected automatically for small
  ``n``; every answer is byte-for-byte what the pre-refactor code
  produced.
* :class:`LazyStrategy` — a CSR adjacency core with per-source rows
  materialized on demand into a budgeted LRU :class:`RowStore`.
  Radius-bounded and size-bounded queries run *limit*-bounded Dijkstra
  (``scipy.sparse.csgraph.dijkstra(limit=...)``) and never touch nodes
  beyond the queried ball, so ``ball`` / ``ball_size`` / ``size_radius``
  / ``r_u`` / ``nearest_in`` never materialize a full row.

Bit-identity between the strategies rests on a property of Dijkstra
with a radius cutoff: every node settled by a bounded run carries
exactly the distance *and predecessor* the unbounded run assigns it,
and a run with ``limit = L`` settles precisely the nodes with
``d(u, v) <= L``.  The strategy-equivalence suite in
``tests/test_substrate.py`` holds both strategies to byte equality on
every fixture.

Floating-point comparisons throughout use :data:`DISTANCE_SLACK`, the
same absolute tolerance the dense code always used (re-exported from
``graph_metric`` for backward compatibility).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.types import NodeId, PreprocessingError, RouteFailure

#: Relative slack used when comparing floating-point distances.  All edge
#: weights are >= 1 after normalization, so an absolute epsilon is safe.
DISTANCE_SLACK = 1e-9

#: ``strategy="auto"`` picks dense at or below this node count.  Small
#: graphs are cheaper to solve eagerly than to manage a row store for,
#: and every pre-refactor workload (n <= 256) stays byte-identical.
DENSE_NODE_LIMIT = 512

#: Default LRU budget for lazily materialized rows (bytes of row-array
#: storage; ~64 MiB holds ≈ 550 full rows at n = 10⁴).
DEFAULT_ROW_BUDGET_BYTES = 64 * 2**20

#: ``diameter`` is computed exactly (streamed row maxima, no matrix)
#: up to this size; beyond it the lazy strategy reports an iterated
#: double-sweep lower bound (exact on trees, >= Δ/2 in general).
EXACT_DIAMETER_LIMIT = 2048

#: Sources per scipy call when streaming many rows (bounds transient
#: memory to ``chunk * n`` floats instead of ``n * n``).
_ROW_CHUNK = 256


def _lexsorted_view(
    dist: np.ndarray, ids: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_dist)`` sorting entries by ``(distance, id)``."""
    if ids is None:
        order = np.lexsort((np.arange(dist.shape[0]), dist))
    else:
        order = np.lexsort((ids, dist))
    return order, dist[order]


class _Row:
    """One row-store entry: a full or radius-bounded SSSP solution.

    Full rows (``full=True``) store dense ``(n,)`` distance/predecessor
    vectors; partial rows store only the settled nodes (``ids`` sorted
    ascending, ``dist``/``pred`` aligned) plus the search ``limit`` that
    produced them — every node with ``d <= limit`` is settled, so any
    query whose reach is within ``limit`` answers exactly.  ``hops``
    memoizes this source's first hops (aligned with ``ids`` on partial
    rows), so one eviction or splice drops them together with the
    distances they came from.
    """

    __slots__ = (
        "ids",
        "dist",
        "pred",
        "order",
        "sorted_dist",
        "limit",
        "full",
        "hops",
        "nbytes",
    )

    def __init__(
        self,
        dist: np.ndarray,
        pred: np.ndarray,
        limit: float,
        full: bool,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self.ids = ids
        self.dist = dist
        self.pred = pred
        self.limit = limit
        self.full = full
        self.hops: Optional[np.ndarray] = None
        self.order, self.sorted_dist = _lexsorted_view(dist, ids)
        self.nbytes = (
            dist.nbytes
            + pred.nbytes
            + self.order.nbytes
            + self.sorted_dist.nbytes
            + (0 if ids is None else ids.nbytes)
        )

    @property
    def settled(self) -> int:
        return self.dist.shape[0]

    def covers_radius(self, need: float) -> bool:
        return self.full or self.limit >= need

    def lookup(self, v: NodeId) -> Tuple[float, int]:
        """``(distance, predecessor)`` of ``v`` or ``(inf, -1)``."""
        if self.full:
            return float(self.dist[v]), int(self.pred[v])
        pos = int(np.searchsorted(self.ids, v))
        if pos < self.ids.shape[0] and self.ids[pos] == v:
            return float(self.dist[pos]), int(self.pred[pos])
        return float("inf"), -1

    def lookup_many(self, targets: np.ndarray) -> np.ndarray:
        """Distances of ``targets`` (``inf`` where unsettled)."""
        if self.full:
            return self.dist[targets]
        pos = np.searchsorted(self.ids, targets)
        pos_clipped = np.minimum(pos, self.ids.shape[0] - 1)
        valid = self.ids[pos_clipped] == targets
        out = np.full(targets.shape[0], np.inf)
        out[valid] = self.dist[pos_clipped[valid]]
        return out

    def prefix(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """First ``count`` nodes by ``(distance, id)`` plus distances."""
        idx = self.order[:count]
        ids = idx if self.ids is None else self.ids[idx]
        return ids, self.sorted_dist[:count]

    def sorted_entry(self, rank: int) -> float:
        return float(self.sorted_dist[rank])


class RowStore:
    """Budgeted LRU cache of per-source :class:`_Row` entries.

    Eviction is by least-recent *access*; the byte budget covers the
    entries' distance, predecessor and order arrays (first-hop memos
    ride along uncharged and die with the rows they annotate).  A single
    row is always admitted even when it alone exceeds the budget, so
    queries never livelock.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[NodeId, _Row]" = OrderedDict()
        self.stored_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, u: NodeId) -> bool:
        return u in self._entries

    def get(self, u: NodeId) -> Optional[_Row]:
        entry = self._entries.get(u)
        if entry is not None:
            self._entries.move_to_end(u)
        return entry

    def put(self, u: NodeId, entry: _Row) -> _Row:
        old = self._entries.pop(u, None)
        if old is not None:
            self.stored_bytes -= old.nbytes
        self._entries[u] = entry
        self.stored_bytes += entry.nbytes
        while self.stored_bytes > self.budget_bytes and len(self._entries) > 1:
            victim, dropped = self._entries.popitem(last=False)
            if victim == u:  # never evict the entry just inserted
                self._entries[victim] = dropped
                self._entries.move_to_end(victim, last=False)
                break
            self.stored_bytes -= dropped.nbytes
            self.evictions += 1
        return entry

    def pop(self, u: NodeId) -> None:
        entry = self._entries.pop(u, None)
        if entry is not None:
            self.stored_bytes -= entry.nbytes

    def items(self) -> Iterable[Tuple[NodeId, _Row]]:
        return list(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()
        self.stored_bytes = 0


def _row_digest_bytes(dist: np.ndarray, pred: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dist).tobytes())
    digest.update(np.ascontiguousarray(pred).tobytes())
    return digest.hexdigest()


def first_hops(parent: np.ndarray, root: int, source: NodeId) -> np.ndarray:
    """First hops of a predecessor tree, by vectorized pointer jumping.

    ``parent[i]`` is the tree parent of index ``i`` (ignored at
    ``root``).  Returns ``hop`` with ``hop[i]`` the child of ``root`` on
    the tree path ``root → i`` and ``hop[root] = root``: the first edge
    of the canonical path from ``source`` when ``parent`` is its
    Dijkstra predecessor row.  Children of the root point at themselves
    and every other index at its parent; each squaring ``jump[jump]``
    doubles the reach, so ⌈log₂ m⌉ + 1 rounds land every index of a
    valid tree on a child.  A corrupted row whose pointers cycle never
    does — a 2-cycle even converges, to self-loops — so the result is
    checked and a non-tree raises :class:`RouteFailure` naming
    ``source``.
    """
    m = parent.shape[0]
    index = np.arange(m)
    child = parent == root
    jump = np.where(child | (parent < 0), index, parent)
    jump[root] = root
    for _ in range((m - 1).bit_length() + 1):  # ⌈log₂ m⌉ + 1
        nxt = jump[jump]
        if np.array_equal(nxt, jump):
            break
        jump = nxt
    landed = child[jump]
    landed[root] = True
    if not landed.all():
        raise RouteFailure(
            f"predecessor row of source {source} is not a shortest-path "
            "tree (cycle or dangling pointer)"
        )
    return jump


class DenseStrategy:
    """Eager full-matrix APSP — the pre-refactor behavior, verbatim.

    Holds the complete distance and predecessor matrices plus the
    original per-source derived caches (lexsort order, sorted distances,
    first-hop dicts).  Every query path is the code that used to live on
    ``GraphMetric`` itself, so dense answers are byte-identical to the
    pre-refactor library by construction.
    """

    kind = "dense"

    def __init__(self, matrix: csr_matrix, n: int) -> None:
        self._n = n
        dist, pred = dijkstra(matrix, directed=True, return_predecessors=True)
        if not np.all(np.isfinite(dist)):
            raise PreprocessingError("graph must be connected")
        self._dist = dist
        self._pred = pred
        self._order_cache: Dict[NodeId, np.ndarray] = {}
        self._sorted_dist_cache: Dict[NodeId, np.ndarray] = {}
        self._next_hop_cache: Dict[NodeId, np.ndarray] = {}

    # -- construction without solving (updated()/unpickle paths) -------

    @classmethod
    def from_matrices(
        cls, dist: np.ndarray, pred: np.ndarray
    ) -> "DenseStrategy":
        strategy = object.__new__(cls)
        strategy._n = dist.shape[0]
        strategy._dist = dist
        strategy._pred = pred
        strategy._order_cache = {}
        strategy._sorted_dist_cache = {}
        strategy._next_hop_cache = {}
        return strategy

    # -- queries --------------------------------------------------------

    def distance(self, u: NodeId, v: NodeId) -> float:
        return float(self._dist[u, v])

    def row(self, u: NodeId) -> np.ndarray:
        return self._dist[u]

    def pred_row(self, u: NodeId) -> np.ndarray:
        return self._pred[u]

    def eccentricity(self, u: NodeId) -> float:
        return float(self._dist[u].max())

    def _order_from(self, u: NodeId) -> np.ndarray:
        order = self._order_cache.get(u)
        if order is None:
            d = self._dist[u]
            order = np.lexsort((np.arange(self._n), d))
            self._order_cache[u] = order
            self._sorted_dist_cache[u] = d[order]
        return order

    def ball_with_distances(
        self, u: NodeId, r: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        order = self._order_from(u)
        sorted_d = self._sorted_dist_cache[u]
        count = int(np.searchsorted(sorted_d, r + DISTANCE_SLACK, "right"))
        return order[:count], sorted_d[:count]

    def ball_size(self, u: NodeId, r: float) -> int:
        self._order_from(u)
        sorted_d = self._sorted_dist_cache[u]
        return int(np.searchsorted(sorted_d, r + DISTANCE_SLACK, "right"))

    def size_radius(self, u: NodeId, size: int) -> float:
        self._order_from(u)
        return float(self._sorted_dist_cache[u][size - 1])

    def size_ball(self, u: NodeId, size: int) -> np.ndarray:
        order = self._order_from(u)
        return order[:size]

    def nearest_among(
        self,
        u: NodeId,
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> NodeId:
        d = self._dist[u]
        if len(candidates) <= 64:
            # Candidate lists from the search trees are tiny; a python
            # scan beats the numpy round-trip by an order of magnitude.
            if tol == 0.0:
                return int(min(candidates, key=lambda x: (d[x], x)))
            best = min(d[x] for x in candidates)
            return int(min(x for x in candidates if d[x] <= best + tol))
        targets = np.asarray(candidates, dtype=np.int64)
        dt = d[targets]
        best = dt.min()
        return int(targets[dt <= best + tol].min())

    def max_distance_to(
        self,
        u: NodeId,
        among: Iterable[NodeId],
        hint: Optional[float] = None,
    ) -> float:
        d = self._dist[u]
        return float(max(d[x] for x in among))

    def next_hops_from(self, u: NodeId) -> np.ndarray:
        hops = self._next_hop_cache.get(u)
        if hops is None:
            hops = first_hops(self._pred[u], u, u)
            self._next_hop_cache[u] = hops
        return hops

    def next_hop(self, u: NodeId, v: NodeId) -> NodeId:
        return int(self.next_hops_from(u)[v])

    def size_ball_with_hops(
        self, u: NodeId, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = self._order_from(u)[:size]
        return (
            ids,
            self._sorted_dist_cache[u][:size],
            self.next_hops_from(u)[ids],
        )

    # -- maintenance ----------------------------------------------------

    def row_digest(self, u: NodeId) -> str:
        return _row_digest_bytes(self._dist[u], self._pred[u])

    def splice_rows(self, rows: List[int], matrix: csr_matrix) -> None:
        index = np.asarray(rows, dtype=np.int64)
        sub_dist, sub_pred = dijkstra(
            matrix, directed=True, indices=index, return_predecessors=True
        )
        if not np.all(np.isfinite(sub_dist)):
            raise PreprocessingError("graph must be connected")
        self._dist[index] = sub_dist
        self._pred[index] = sub_pred
        for s in rows:
            self.invalidate_derived(s)

    def mutable_row(self, u: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        return self._dist[u], self._pred[u]

    def invalidate_derived(self, u: NodeId) -> None:
        self._order_cache.pop(u, None)
        self._sorted_dist_cache.pop(u, None)
        self._next_hop_cache.pop(u, None)

    def carry_into(
        self, new: "DenseStrategy", dirty: frozenset
    ) -> None:
        new._order_cache = {
            s: o for s, o in self._order_cache.items() if s not in dirty
        }
        new._sorted_dist_cache = {
            s: sd
            for s, sd in self._sorted_dist_cache.items()
            if s not in dirty
        }
        new._next_hop_cache = {
            s: h for s, h in self._next_hop_cache.items() if s not in dirty
        }

    def diameter_estimate(self) -> Tuple[float, bool]:
        return float(self._dist.max()), True

    # -- accounting / persistence --------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "strategy": "dense",
            "rows_materialized": self._n,
            "row_hits": 0,
            "row_misses": 0,
            "bounded_searches": 0,
            "evictions": 0,
            "stored_bytes": int(self._dist.nbytes + self._pred.nbytes),
            "budget_bytes": None,
        }

    def state(self) -> Dict[str, object]:
        return {"dist": self._dist, "pred": self._pred}

    @classmethod
    def restore(cls, state: Dict[str, object], n: int) -> "DenseStrategy":
        return cls.from_matrices(state["dist"], state["pred"])


class LazyStrategy:
    """CSR core + budgeted LRU row store + bounded searches.

    Full rows are materialized only when a caller genuinely needs one
    (``distances_from``, ``row_digest``); balls, size-radii, and nearest
    queries run limit-bounded Dijkstra and cache the partial solution.
    An expanding-limit loop (doubling from a caller hint) serves queries
    whose reach is not known in advance; since every retry at least
    doubles the limit, total work is within a constant factor of the
    final search.
    """

    kind = "lazy"

    def __init__(
        self,
        matrix: csr_matrix,
        n: int,
        budget_bytes: int = DEFAULT_ROW_BUDGET_BYTES,
    ) -> None:
        self._matrix = matrix
        self._n = n
        self.store = RowStore(budget_bytes)
        self.rows_materialized = 0
        self.bounded_searches = 0
        # Radius hints per size class (log2 bucket), warmed by earlier
        # size queries so repeated r_u(j) sweeps start near the answer.
        self._size_hints: Dict[int, float] = {}

    # -- search primitives ---------------------------------------------

    def _run(
        self, u: NodeId, limit: float = np.inf
    ) -> Tuple[np.ndarray, np.ndarray]:
        dist, pred = dijkstra(
            self._matrix,
            directed=True,
            indices=[u],
            return_predecessors=True,
            limit=limit,
        )
        return dist[0], pred[0]

    def _install(self, u: NodeId, limit: float) -> _Row:
        self.bounded_searches += 1
        dist, pred = self._run(u, limit=limit)
        settled = np.isfinite(dist)
        if bool(settled.all()):
            entry = _Row(dist, pred, float("inf"), True)
            self.rows_materialized += 1
        else:
            ids = np.nonzero(settled)[0]
            entry = _Row(dist[ids], pred[ids], float(limit), False, ids=ids)
        return self.store.put(u, entry)

    def ensure_full(self, u: NodeId) -> _Row:
        entry = self.store.get(u)
        if entry is not None and entry.full:
            self.store.hits += 1
            return entry
        self.store.misses += 1
        return self._install(u, np.inf)

    def ensure_radius(self, u: NodeId, need: float) -> _Row:
        entry = self.store.get(u)
        if entry is not None and entry.covers_radius(need):
            self.store.hits += 1
            return entry
        self.store.misses += 1
        limit = need if entry is None else max(need, 2.0 * entry.limit)
        return self._install(u, limit)

    def ensure_size(self, u: NodeId, size: int) -> _Row:
        entry = self.store.get(u)
        if entry is not None and (entry.full or entry.settled >= size):
            self.store.hits += 1
            return entry
        self.store.misses += 1
        bucket = int(size).bit_length()
        limit = max(self._size_hints.get(bucket, 1.0), 1.0)
        if entry is not None:
            limit = max(limit, 2.0 * entry.limit)
        while True:
            entry = self._install(u, limit)
            if entry.full or entry.settled >= size:
                break
            limit *= 2.0
        # Remember the radius that actually covered this size class so
        # the next node's query starts close (keeps greedy sweeps like
        # BallPacking near one search per node).
        self._size_hints[bucket] = max(
            self._size_hints.get(bucket, 1.0), entry.sorted_entry(size - 1)
        )
        return entry

    def ensure_target(self, u: NodeId, v: NodeId) -> _Row:
        entry = self.store.get(u)
        if entry is not None:
            if entry.full or entry.lookup(v)[0] != float("inf"):
                self.store.hits += 1
                return entry
        self.store.misses += 1
        limit = 1.0 if entry is None else max(1.0, 2.0 * entry.limit)
        while True:
            entry = self._install(u, limit)
            if entry.full or entry.lookup(v)[0] != float("inf"):
                return entry
            limit *= 2.0

    # -- queries --------------------------------------------------------

    def distance(self, u: NodeId, v: NodeId) -> float:
        if u == v:
            return 0.0
        # Either endpoint's cached row answers (d is symmetric); only
        # fall back to an expanding search when neither settles the pair.
        for a, b in ((u, v), (v, u)):
            entry = self.store.get(a)
            if entry is not None:
                d = entry.lookup(b)[0]
                if d != float("inf"):
                    self.store.hits += 1
                    return d
        return self.ensure_target(u, v).lookup(v)[0]

    def row(self, u: NodeId) -> np.ndarray:
        return self.ensure_full(u).dist

    def pred_row(self, u: NodeId) -> np.ndarray:
        return self.ensure_full(u).pred

    def eccentricity(self, u: NodeId) -> float:
        # Satellite fix: one lazy row, never the full APSP matrix.
        return float(self.ensure_full(u).dist.max())

    def ball_with_distances(
        self, u: NodeId, r: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        entry = self.ensure_radius(u, r + DISTANCE_SLACK)
        count = int(
            np.searchsorted(entry.sorted_dist, r + DISTANCE_SLACK, "right")
        )
        return entry.prefix(count)

    def ball_size(self, u: NodeId, r: float) -> int:
        entry = self.ensure_radius(u, r + DISTANCE_SLACK)
        return int(
            np.searchsorted(entry.sorted_dist, r + DISTANCE_SLACK, "right")
        )

    def size_radius(self, u: NodeId, size: int) -> float:
        return self.ensure_size(u, size).sorted_entry(size - 1)

    def size_ball(self, u: NodeId, size: int) -> np.ndarray:
        return self.ensure_size(u, size).prefix(size)[0]

    def nearest_among(
        self,
        u: NodeId,
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> NodeId:
        targets = np.asarray(candidates, dtype=np.int64)
        entry = self.store.get(u)
        limit = hint if hint is not None else 1.0
        if entry is not None:
            limit = max(limit, entry.limit)
        while True:
            entry = self.ensure_radius(u, limit)
            if entry.full:
                d = entry.dist[targets]
                best = d.min()
                return int(targets[d <= best + tol].min())
            d = entry.lookup_many(targets)
            best = d.min()
            # Every candidate with d <= best + tol is settled once the
            # limit covers best + tol (unsettled nodes are strictly
            # beyond the limit), so the winner set is exact.
            if best + tol <= entry.limit:
                return int(targets[d <= best + tol].min())
            limit = max(
                2.0 * entry.limit,
                best + tol if np.isfinite(best) else 2.0 * limit,
            )

    def max_distance_to(
        self,
        u: NodeId,
        among: Iterable[NodeId],
        hint: Optional[float] = None,
    ) -> float:
        targets = np.asarray(sorted(set(int(x) for x in among)), dtype=np.int64)
        entry = self.store.get(u)
        limit = hint if hint is not None else 1.0
        if entry is not None:
            limit = max(limit, entry.limit)
        while True:
            entry = self.ensure_radius(u, limit)
            if entry.full:
                return float(entry.dist[targets].max())
            d = entry.lookup_many(targets)
            if np.isfinite(d).all():
                return float(d.max())
            limit = 2.0 * entry.limit

    def _row_hops(self, u: NodeId, entry: _Row) -> np.ndarray:
        """First hops over every node ``entry`` settled, memoized on it."""
        if entry.hops is None:
            if entry.full:
                entry.hops = first_hops(entry.pred, u, u)
            else:
                # Every predecessor of a settled node is settled (it is
                # strictly nearer), so the tree maps into ``ids``.
                parent = np.searchsorted(entry.ids, entry.pred)
                root = int(np.searchsorted(entry.ids, u))
                entry.hops = entry.ids[first_hops(parent, root, u)]
        return entry.hops

    def next_hops_from(self, u: NodeId) -> np.ndarray:
        return self._row_hops(u, self.ensure_full(u))

    def next_hop(self, u: NodeId, v: NodeId) -> NodeId:
        entry = self.ensure_target(u, v)
        hops = self._row_hops(u, entry)
        if entry.full:
            return int(hops[v])
        return int(hops[np.searchsorted(entry.ids, v)])

    def size_ball_with_hops(
        self, u: NodeId, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        entry = self.ensure_size(u, size)
        ids, dists = entry.prefix(size)
        if entry.full:
            return ids, dists, self._row_hops(u, entry)[ids]
        # Pointer-jump over the ball alone, rooted at ids[0] = u: it is
        # closed under predecessors (each is strictly nearer, so it
        # sorts earlier), while the partial row may have settled far
        # more nodes.
        pred = entry.pred[entry.order[:size]]
        by_id = np.argsort(ids)
        parent = by_id[np.searchsorted(ids, pred, sorter=by_id)]
        return ids, dists, ids[first_hops(parent, 0, u)]

    # -- maintenance ----------------------------------------------------

    def row_digest(self, u: NodeId) -> str:
        entry = self.ensure_full(u)
        return _row_digest_bytes(entry.dist, entry.pred)

    def splice_rows(self, rows: List[int], matrix: csr_matrix) -> None:
        self._matrix = matrix
        for s in rows:
            self.store.pop(s)
        # Re-materialize eagerly so post-splice digests read healed
        # rows without a burst of on-demand misses.
        for s in rows:
            self.store.misses += 1
            self._install(s, np.inf)

    def mutable_row(self, u: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        # Copy-on-write: entries can be shared with a pre-edit metric
        # snapshot (see ``carry_into``), so in-place corruption (the
        # chaos injector's model) must never leak across snapshots.
        entry = self.ensure_full(u)
        fresh = _Row(
            entry.dist.copy(), entry.pred.copy(), float("inf"), True
        )
        self.store.put(u, fresh)
        return fresh.dist, fresh.pred

    def invalidate_derived(self, u: NodeId) -> None:
        # Derived views (lexsort order, first hops) live on the row
        # entry; after an in-place mutation they must be rebuilt from
        # the mutated arrays.
        entry = self.store.get(u)
        if entry is None:
            return
        self.store.put(
            u,
            _Row(
                entry.dist,
                entry.pred,
                entry.limit,
                entry.full,
                ids=entry.ids,
            ),
        )

    def adopt_row(
        self, u: NodeId, dist: np.ndarray, pred: np.ndarray
    ) -> None:
        """Install a full row computed externally (``updated`` splice)."""
        self.store.put(u, _Row(dist, pred, float("inf"), True))
        self.rows_materialized += 1

    def carry_into(self, new: "LazyStrategy", dirty: frozenset) -> None:
        for s, entry in self.store.items():
            if s not in dirty:
                new.store.put(s, entry)

    def diameter_estimate(self) -> Tuple[float, bool]:
        """``(estimate, exact)`` diameter without a dense matrix.

        Up to :data:`EXACT_DIAMETER_LIMIT` nodes: stream row maxima in
        chunks (exact, O(chunk · n) transient memory).  Beyond: the
        iterated double sweep — repeatedly jump to the farthest node and
        re-run — which lower-bounds Δ by at least Δ/2 on any graph and
        is exact on trees.
        """
        if self._n <= 1:
            return 1.0, True
        if self._n <= EXACT_DIAMETER_LIMIT:
            best = 0.0
            for start in range(0, self._n, _ROW_CHUNK):
                indices = np.arange(start, min(start + _ROW_CHUNK, self._n))
                dist = dijkstra(self._matrix, directed=True, indices=indices)
                if not np.all(np.isfinite(dist)):
                    raise PreprocessingError("graph must be connected")
                best = max(best, float(dist.max()))
            return best, True
        source = 0
        best = 0.0
        for _ in range(4):
            dist = dijkstra(self._matrix, directed=True, indices=[source])[0]
            far = int(dist.argmax())
            ecc = float(dist[far])
            if ecc <= best:
                break
            best = ecc
            source = far
        return best, False

    # -- accounting / persistence --------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "strategy": "lazy",
            "rows_materialized": self.rows_materialized,
            "row_hits": self.store.hits,
            "row_misses": self.store.misses,
            "bounded_searches": self.bounded_searches,
            "evictions": self.store.evictions,
            "stored_bytes": self.store.stored_bytes,
            "budget_bytes": self.store.budget_bytes,
        }

    def state(self) -> Dict[str, object]:
        """Persist only fully materialized rows (partials are cheap to
        recompute and dominate entry count, not value)."""
        rows = {
            s: (entry.dist, entry.pred)
            for s, entry in self.store.items()
            if entry.full
        }
        return {"budget_bytes": self.store.budget_bytes, "rows": rows}

    @classmethod
    def restore(
        cls, state: Dict[str, object], matrix: csr_matrix, n: int
    ) -> "LazyStrategy":
        strategy = cls(matrix, n, budget_bytes=state["budget_bytes"])
        for s, (dist, pred) in state["rows"].items():
            strategy.store.put(s, _Row(dist, pred, float("inf"), True))
            strategy.rows_materialized += 1
        return strategy
