"""The distance substrate: one per-source row store behind ``GraphMetric``.

:class:`~repro.metric.graph_metric.GraphMetric` used to *be* the dense
eager APSP matrix — O(n²) memory and O(n · m log n) preprocessing before
the first query, which caps every experiment at a few hundred nodes.
The paper's constructions, however, only ever consult *balls*
``B_u(r)``, *size-radii* ``r_u(j)``, and next hops along canonical
shortest paths — all answerable from single-source searches, so the
eager APSP is just a row store with every row resident.

:class:`LazyStrategy` is that store: a CSR adjacency core plus a
:class:`RowStore` of per-source rows, with one implementation of every
query.  It comes in two fillings:

* ``"lazy"`` — rows are materialized on demand into a budgeted LRU
  store.  Radius-bounded and size-bounded queries run *limit*-bounded
  Dijkstra (``scipy.sparse.csgraph.dijkstra(limit=...)``) and never
  touch nodes beyond the queried ball, so ``ball`` / ``ball_size`` /
  ``size_radius`` / ``r_u`` / ``nearest_in`` never materialize a full
  row.
* ``"dense"`` — every row comes from one batched scipy Dijkstra at
  construction into an unbounded store that never evicts (selected
  automatically for small ``n``).  Every query then answers straight
  from a resident full row.

Bit-identity between the fillings rests on a property of Dijkstra with
a radius cutoff: every node settled by a bounded run carries exactly
the distance *and predecessor* the unbounded run assigns it, and a run
with ``limit = L`` settles precisely the nodes with ``d(u, v) <= L``.
``tests/test_substrate.py`` holds both fillings to byte equality with
each other and with an independent oracle on every fixture.

Floating-point comparisons throughout use :data:`DISTANCE_SLACK`, the
same absolute tolerance the dense code always used (re-exported from
``graph_metric`` for backward compatibility).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.types import NodeId, PreprocessingError, RouteFailure

#: Relative slack used when comparing floating-point distances.  All edge
#: weights are >= 1 after normalization, so an absolute epsilon is safe.
DISTANCE_SLACK = 1e-9

#: ``strategy="auto"`` fills the store up front (dense) at or below
#: this node count: small graphs are cheaper to solve in one batched
#: search than to answer with many bounded ones.
DENSE_NODE_LIMIT = 512

#: Default LRU budget for lazily materialized rows (bytes of row-array
#: storage; ~64 MiB holds ≈ 550 full rows at n = 10⁴).
DEFAULT_ROW_BUDGET_BYTES = 64 * 2**20

#: Sources per scipy call when streaming many rows (bounds transient
#: memory to ``chunk * n`` floats instead of ``n * n``).
_ROW_CHUNK = 256

#: Rows per read in :meth:`LazyStrategy.diameter`: small, because the
#: stopping test runs between reads.
_DIAMETER_BLOCK = 32


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

    ``order``/``sorted_dist`` (the ``(distance, id)`` view) are derived
    on first use, so a row replaced before anyone reads it never pays
    for its sort; ``nbytes`` charges the sorted view from the start.
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
        self.hops = self.order = self.sorted_dist = None
        # dist + pred + the sorted copy of dist + the int64 order, which
        # is as large as the float64 distances (+ ids).
        self.nbytes = (
            3 * dist.nbytes + pred.nbytes + (0 if ids is None else ids.nbytes)
        )

    def _sort(self) -> None:
        self.order, self.sorted_dist = _lexsorted_view(self.dist, self.ids)

    @property
    def settled(self) -> int:
        return self.dist.shape[0]

    def lookup(self, v: NodeId) -> Tuple[float, int]:
        """``(distance, predecessor)`` of ``v`` or ``(inf, -1)``."""
        if self.full:
            return float(self.dist[v]), int(self.pred[v])
        pos = int(self.ids.searchsorted(v))
        if pos < self.ids.shape[0] and self.ids[pos] == v:
            return float(self.dist[pos]), int(self.pred[pos])
        return float("inf"), -1

    def lookup_many(self, targets: np.ndarray) -> np.ndarray:
        """Distances of ``targets`` (``inf`` where unsettled)."""
        if self.full:
            return self.dist[targets]
        pos = self.ids.searchsorted(targets)
        pos_clipped = np.minimum(pos, self.ids.shape[0] - 1)
        valid = self.ids[pos_clipped] == targets
        out = np.full(targets.shape[0], np.inf)
        out[valid] = self.dist[pos_clipped[valid]]
        return out

    def prefix(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """First ``count`` nodes by ``(distance, id)`` plus distances."""
        if self.order is None:
            self._sort()
        idx = self.order[:count]
        ids = idx if self.ids is None else self.ids[idx]
        return ids, self.sorted_dist[:count]

    def sorted_entry(self, rank: int) -> float:
        if self.order is None:
            self._sort()
        return float(self.sorted_dist[rank])

    def count_within(self, radius: float) -> int:
        """Number of settled nodes with distance ``<= radius``."""
        if self.order is None:
            self._sort()
        # The array methods skip np.searchsorted's dispatch wrapper,
        # which costs more than the search itself on a per-query path.
        return int(self.sorted_dist.searchsorted(radius, "right"))


class RowStore:
    """Per-source :class:`_Row` entries, LRU-evicted within a byte budget.

    Eviction is by least-recent *access*; the byte budget covers the
    entries' distance, predecessor and order arrays (first-hop memos
    ride along uncharged and die with the rows they annotate).  A single
    row is always admitted even when it alone exceeds the budget, so
    queries never livelock.  ``budget_bytes=None`` makes the store
    unbounded: nothing is ever evicted, so there is no recency order to
    keep and lookups skip the LRU touch.
    """

    def __init__(self, budget_bytes: Optional[int]) -> None:
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self._entries: "OrderedDict[NodeId, _Row]" = OrderedDict()
        self.stored_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if budget_bytes is None:
            self.get = self._entries.get

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
        if self.budget_bytes is None:
            return entry
        while self.stored_bytes > self.budget_bytes and len(self._entries) > 1:
            victim, dropped = self._entries.popitem(last=False)
            if victim == u:  # never evict the entry just inserted
                self._entries[victim] = dropped
                self._entries.move_to_end(victim, last=False)
                break
            self.stored_bytes -= dropped.nbytes
            self.evictions += 1
        return entry

    def items(self) -> Iterable[Tuple[NodeId, _Row]]:
        return list(self._entries.items())


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


def _solve(
    matrix: csr_matrix,
    indices: Optional[np.ndarray] = None,
    disconnected: str = "graph must be connected",
) -> Tuple[np.ndarray, np.ndarray]:
    """Full ``(dist, pred)`` rows of ``indices`` (all sources if None)."""
    dist, pred = dijkstra(
        matrix, directed=True, indices=indices, return_predecessors=True
    )
    if not np.all(np.isfinite(dist)):
        raise PreprocessingError(disconnected)
    return dist, pred


class _SizeClass:
    """Covering radii of one size class (sizes sharing a bit length).

    ``largest`` is the largest radius any earlier query of the class
    needed, a start that would have covered every one of them.
    ``recent`` holds the last 64 covering radii, whose median is the
    cheaper start for a source's first size query.  ``settled`` and
    ``wanted`` sum the nodes settled by, and the sizes asked of, first
    queries that searched from the largest start: the median start is
    tried only while those settle at least twice what they keep.
    """

    __slots__ = ("largest", "recent", "settled", "wanted")

    def __init__(self) -> None:
        self.largest = 1.0
        self.recent: "deque[float]" = deque(maxlen=64)
        self.settled = 0
        self.wanted = 0

    def median_start(self) -> Optional[float]:
        """The median start while the largest one overshoots, else None."""
        if self.wanted == 0 or self.settled < 2 * self.wanted:
            return None
        return max(sorted(self.recent)[len(self.recent) // 2], 1.0)

    def record(self, radius: float) -> None:
        self.largest = max(self.largest, radius)
        self.recent.append(radius)


class LazyStrategy:
    """CSR core + per-source row store + bounded searches.

    In the ``"lazy"`` filling, full rows are materialized only when a
    caller genuinely needs one (``distances_from``, ``row_digest``);
    balls, size-radii, and nearest queries run limit-bounded Dijkstra
    and cache the partial solution in a budgeted LRU store.  An
    expanding-limit loop (doubling from a caller hint) serves queries
    whose reach is not known in advance; since every retry at least
    doubles the limit, total work is within a constant factor of the
    final search.  Size queries start from covering radii that earlier
    sources of the same size class needed: the largest one, or — for a
    source's first size query, while the largest start settles at least
    twice the size on average — the median of the last 64.  A miss
    from the median start falls back to the largest start and its
    doubling, so it adds one search that settled fewer than ``size``
    nodes to what the largest start alone would have run.

    :meth:`filled` builds the ``"dense"`` filling: every row solved in
    one batched call into an unbounded store, so every query finds its
    full row resident and no search ever runs again.  A filled store
    stays filled through :meth:`updated`, :meth:`splice_rows` and
    pickling.
    """

    def __init__(
        self,
        matrix: csr_matrix,
        n: int,
        budget_bytes: Optional[int] = DEFAULT_ROW_BUDGET_BYTES,
    ) -> None:
        self._matrix = matrix
        self._n = n
        self.store = RowStore(budget_bytes)
        self.kind = "lazy" if budget_bytes is not None else "dense"
        self.rows_materialized = 0
        self.bounded_searches = 0
        self.nodes_settled = 0
        # Covering radii per size class (log2 bucket), warmed by earlier
        # size queries so the next source's search starts near its answer.
        self._size_classes: Dict[int, _SizeClass] = {}

    @classmethod
    def filled(cls, matrix: csr_matrix, n: int) -> "LazyStrategy":
        """Every row resident from one batched search; never evicts."""
        strategy = cls(matrix, n, budget_bytes=None)
        strategy._install_rows(np.arange(n), *_solve(matrix))
        return strategy

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
        self.nodes_settled += entry.settled
        return self.store.put(u, entry)

    def _install_rows(
        self,
        sources: np.ndarray,
        dist: np.ndarray,
        pred: np.ndarray,
        hops: Optional[np.ndarray] = None,
    ) -> None:
        """Store full rows solved as one ``(len(sources), n)`` block,
        with their first hops when the caller already has them."""
        inf = float("inf")
        for k, s in enumerate(sources.tolist()):
            row = _Row(dist[k], pred[k], inf, True)
            if hops is not None:
                row.hops = hops[k]
            self.store.put(s, row)
        self.rows_materialized += len(sources)

    def ensure_full(self, u: NodeId) -> _Row:
        entry = self.store.get(u)
        if entry is not None and entry.full:
            self.store.hits += 1
            return entry
        self.store.misses += 1
        return self._install(u, np.inf)

    def ensure_radius(self, u: NodeId, need: float) -> _Row:
        entry = self.store.get(u)
        if entry is not None and (entry.full or entry.limit >= need):
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
        sizes = self._size_classes.get(bucket)
        if sizes is None:
            sizes = self._size_classes[bucket] = _SizeClass()
        limit = sizes.largest
        first_query = entry is None
        if not first_query:
            # A re-query (BallPacking's level sweep, r_u columns) keeps
            # the largest start: its overshoot pre-pays the next size.
            limit = max(limit, 2.0 * entry.limit)
        else:
            start = sizes.median_start()
            if start is not None and start < limit:
                entry = self._install(u, start)
        # A miss from the median start falls back to the largest start
        # and doubling, so it costs one search of fewer than size nodes.
        while entry is None or not (entry.full or entry.settled >= size):
            entry = self._install(u, limit)
            if first_query:
                sizes.settled += entry.settled
                sizes.wanted += size
                first_query = False
            limit *= 2.0
        sizes.record(entry.sorted_entry(size - 1))
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
        entry = self.store.get(u)
        if entry is not None and entry.full:
            self.store.hits += 1
            return float(entry.dist[v])
        # Only u's own row answers: on weighted graphs d(v, u) can differ
        # from d(u, v) in the last bit, so reading v's row would make the
        # answer depend on which rows happen to be resident.
        return self.ensure_target(u, v).lookup(v)[0]

    def row(self, u: NodeId) -> np.ndarray:
        return self.ensure_full(u).dist

    def pred_row(self, u: NodeId) -> np.ndarray:
        return self.ensure_full(u).pred

    def eccentricity(self, u: NodeId) -> float:
        # One row, never the full APSP matrix.
        return float(self.ensure_full(u).dist.max())

    def ball_with_distances(
        self, u: NodeId, r: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        reach = r + DISTANCE_SLACK
        entry = self.ensure_radius(u, reach)
        return entry.prefix(entry.count_within(reach))

    def ball_size(self, u: NodeId, r: float) -> int:
        reach = r + DISTANCE_SLACK
        return self.ensure_radius(u, reach).count_within(reach)

    def size_radius(self, u: NodeId, size: int) -> float:
        return self.ensure_size(u, size).sorted_entry(size - 1)

    def size_ball(self, u: NodeId, size: int) -> np.ndarray:
        return self.ensure_size(u, size).prefix(size)[0]

    def _nearest_one(
        self,
        u: NodeId,
        targets: np.ndarray,
        member: np.ndarray,
        tol: float,
        hint: Optional[float],
    ) -> NodeId:
        """Least-id candidate within ``tol`` of ``u``'s nearest, on
        ``u``'s own row (``member`` flags the candidates).

        A resident row is read first, whatever its reach.  A search runs
        only while the row cannot certify the answer; it reaches at
        least ``hint`` (or 1), twice the row's limit, and the nearest
        candidate seen so far, so the answer never depends on the
        starting reach.
        """
        limit = 1.0 if hint is None else hint
        entry = self.store.get(u)
        if entry is None:
            entry = self.ensure_radius(u, limit)
        else:
            self.store.hits += 1
        while True:
            if entry.full:
                d = entry.dist[targets]
                return int(targets[d <= d.min() + tol].min())
            settled = member[entry.ids]
            d = entry.dist[settled]
            limit = max(limit, 2.0 * entry.limit)
            if d.size:
                reach = d.min() + tol
                # Every candidate within reach is settled once the limit
                # covers it (unsettled nodes lie strictly beyond the
                # limit), so the winner set is exact; ids ascend.
                if reach <= entry.limit:
                    return int(entry.ids[settled][d <= reach][0])
                limit = max(limit, reach)
            entry = self.ensure_radius(u, limit)

    def nearest_many(
        self,
        sources: Sequence[NodeId],
        candidates: Sequence[NodeId],
        tol: float = 0.0,
        hint: Optional[float] = None,
    ) -> np.ndarray:
        """Per source, the least-id candidate within ``tol`` of its
        nearest, read off the source's own row (see
        :meth:`_nearest_one`).  A lone candidate is every source's
        answer without a search."""
        targets = np.asarray(candidates, dtype=np.int64)
        if targets.shape[0] == 1:
            return np.full(len(sources), targets[0], dtype=np.int64)
        member = np.zeros(self._n, dtype=bool)
        member[targets] = True
        return np.fromiter(
            (
                self._nearest_one(int(u), targets, member, tol, hint)
                for u in sources
            ),
            dtype=np.int64,
            count=len(sources),
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

    def _resident_hops(self, u: NodeId) -> Optional[np.ndarray]:
        """The first hops of u's resident full row (memoized on it), if
        the row is resident."""
        entry = self.store.get(u)
        return self._row_hops(u, entry) if entry is not None and entry.full else None

    def next_hops_from(self, u: NodeId) -> np.ndarray:
        return self._row_hops(u, self.ensure_full(u))

    def row_blocks(
        self, sources: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The full rows of ``sources`` and their first hops,
        ``(block, dist, hops)`` in blocks of :data:`_ROW_CHUNK` sources.

        Each block is :meth:`_full_rows`, and blocks are never read back
        from the store, so every row is solved at most once.  The rows
        a block solved are installed with their hops when the budget
        holds every row asked for; otherwise the pass only streams them,
        so it does not flush the working set of the bounded searches.
        """
        row_bytes = 3 * 8 * self._n + 4 * self._n  # _Row.nbytes of a full row
        budget = self.store.budget_bytes
        keep = budget is None or sources.shape[0] * row_bytes <= budget
        for start in range(0, sources.shape[0], _ROW_CHUNK):
            block = sources[start : start + _ROW_CHUNK]
            dist, pred, solved = self._full_rows(block)
            # A resident row memoizes its first hops; solved rows are
            # installed with theirs.
            memo = [self._resident_hops(u) for u in block.tolist()]
            hops = np.array(
                [
                    first_hops(p, u, u) if known is None else known
                    for u, p, known in zip(block.tolist(), pred, memo)
                ]
            )
            if keep:
                self._install_rows(
                    block[solved], dist[solved], pred[solved], hops[solved]
                )
            else:
                self.rows_materialized += len(solved)
            yield block, dist, hops

    def next_hop(self, u: NodeId, v: NodeId) -> NodeId:
        entry = self.ensure_target(u, v)
        hops = self._row_hops(u, entry)
        if entry.full:
            return int(hops[v])
        return int(hops[entry.ids.searchsorted(v)])

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
        # Re-materialize eagerly so post-splice digests read healed
        # rows without a burst of on-demand misses.
        self._matrix = matrix
        index = np.asarray(rows, dtype=np.int64)
        self._install_rows(index, *_solve(matrix, index))

    def mutable_row(self, u: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        # Copy-on-write: entries can be shared with a pre-edit metric
        # snapshot (see ``updated``), so in-place corruption (the chaos
        # injector's model) must never leak across snapshots.
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

    def _full_rows(
        self, sources: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Full rows of ``sources`` as one block, plus the positions it
        solved: resident rows are read from the store, the rest solved
        in one batch."""
        rows: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            (entry.dist, entry.pred)
            if entry is not None and entry.full
            else None
            for entry in map(self.store.get, sources.tolist())
        ]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            dist, pred = _solve(self._matrix, sources[missing])
            for k, i in enumerate(missing):
                rows[i] = (dist[k], pred[k])
        return (
            np.array([dist for dist, _ in rows]),
            np.array([pred for _, pred in rows]),
            missing,
        )

    def updated(
        self, matrix: csr_matrix, candidates: np.ndarray
    ) -> Tuple["LazyStrategy", FrozenSet[NodeId]]:
        """This store over the edited ``matrix``, plus the dirty set.

        ``candidates`` are the sources the edit may touch.  The
        tie-inclusive candidate mask is conservative (on unit-weight
        grids it can flag nearly every source), so they are re-solved
        in chunks and compared with their old rows block by block: a
        candidate whose distances and predecessors are both unchanged
        is clean after all.  Dirty sources that were resident stay
        resident with their new rows, and every clean entry is carried
        over as is — so a filled store stays filled.
        """
        new = LazyStrategy(matrix, self._n, budget_bytes=self.store.budget_bytes)
        dirty: List[int] = []
        for start in range(0, candidates.shape[0], _ROW_CHUNK):
            chunk = candidates[start : start + _ROW_CHUNK]
            new_dist, new_pred = _solve(
                matrix, chunk, "edit disconnected the graph"
            )
            old_dist, old_pred, _ = self._full_rows(chunk)
            changed = (new_dist != old_dist).any(axis=1) | (
                new_pred != old_pred
            ).any(axis=1)
            dirty.extend(chunk[changed].tolist())
            keep = changed & np.fromiter(
                (s in self.store for s in chunk.tolist()),
                dtype=bool,
                count=chunk.shape[0],
            )
            new._install_rows(chunk[keep], new_dist[keep], new_pred[keep])
        dirty_set = frozenset(dirty)
        for s, entry in self.store.items():
            if s not in dirty_set:
                new.store.put(s, entry)
        return new, dirty_set

    def diameter(self) -> float:
        """The largest entry of any full row, by weighted iFUB.

        iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, TCS 2013):
        a double sweep from node 0 to ``a``, the farthest node from 0,
        and ``b``, the farthest from ``a``; then the row of ``c``, the
        least-id node minimizing ``max(d(a, ·), d(b, ·))``; then the
        other rows in decreasing ``d(c, ·)`` (ties by id), in blocks of
        :data:`_DIAMETER_BLOCK`.  Once the best row maximum exceeds
        ``2t`` (with relative slack), where ``t`` is ``d(c, ·)`` of the
        next unread node, no two unread nodes can be farther apart than
        that maximum.  An unread ``x`` can then beat it only through a
        read row ``y`` whose ``d(y, x)`` is within the slack of it,
        because ``d(x, y)`` and ``d(y, x)`` may differ in the last bit;
        those rows are read too, until there are none.  The result is
        therefore the maximum over all ``n`` rows, bit for bit.

        Rows come from :meth:`_full_rows`: resident rows are read, the
        rest are solved and dropped, so residency and the store's
        counters are unchanged and a filled store runs no search.
        """
        n = self._n
        read = np.zeros(n, dtype=bool)
        # Per node x, the largest d(y, x) over the rows y read so far.
        reach = np.zeros(n)

        def scan(sources: np.ndarray) -> np.ndarray:
            dist = self._full_rows(sources)[0]
            read[sources] = True
            np.maximum(reach, dist.max(axis=0), out=reach)
            return dist

        rows: Dict[int, np.ndarray] = {}

        def row(u: int) -> np.ndarray:
            if u not in rows:
                rows[u] = scan(np.array([u]))[0]
            return rows[u]

        a = int(row(0).argmax())
        b = int(row(a).argmax())
        c = int(np.maximum(row(a), row(b)).argmin())
        around = row(c)
        order = np.lexsort((np.arange(n), -around))
        order = order[~read[order]]
        margin = 1.0 + DISTANCE_SLACK
        for start in range(0, order.shape[0], _DIAMETER_BLOCK):
            if reach.max() > 2.0 * around[order[start]] * margin:
                break
            scan(order[start : start + _DIAMETER_BLOCK])
        while True:
            best = reach.max()
            late = np.nonzero(~read & (reach >= best / margin))[0]
            if late.shape[0] == 0:
                return float(best)
            for start in range(0, late.shape[0], _DIAMETER_BLOCK):
                scan(late[start : start + _DIAMETER_BLOCK])

    # -- accounting / persistence --------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "strategy": self.kind,
            "rows_materialized": self.rows_materialized,
            "row_hits": self.store.hits,
            "row_misses": self.store.misses,
            "bounded_searches": self.bounded_searches,
            "nodes_settled": self.nodes_settled,
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
        rows = state["rows"]
        if rows:
            strategy._install_rows(
                np.fromiter(rows, dtype=np.int64, count=len(rows)),
                np.array([dist for dist, _ in rows.values()]),
                np.array([pred for _, pred in rows.values()]),
            )
        return strategy
