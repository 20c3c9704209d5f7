"""Memoizing build context for substrates and schemes.

Every scheme in this library is a deterministic function of
``(graph, SchemeParameters, construction kwargs)``, and the expensive
intermediates — the APSP :class:`GraphMetric`, the :class:`NetHierarchy`,
the :class:`BallPacking` — are shared by several schemes.  A
:class:`BuildContext` builds each artifact exactly once per key and hands
the same object to every consumer:

* ``context.metric(graph)`` — the shortest-path metric, built once per
  graph (keyed by :func:`graph_content_key`, one SHA-256 over the
  graph's canonical edge array, taken afresh on every call, so a graph
  mutated by any means gets a new key);
* ``context.hierarchy(metric)`` / ``context.packing(metric)`` — one
  substrate per metric, shared across all schemes built on it;
* ``context.scheme(cls, metric, params)`` — resolves the scheme's
  substrate dependencies through the context (see
  ``RoutingScheme.from_context``) and memoizes the built scheme;
* ``context.pairs(metric, count, seed)`` — the evaluation pair sample,
  deduplicated across experiments.

With ``cache_dir`` set (conventionally ``.repro-cache/``), artifacts are
additionally pickled to disk keyed by the same content hash, so a second
process — or a second run — skips construction entirely.  Delete the
directory (``rm -rf .repro-cache``) to drop all cached artifacts; keys
include a format version, so stale caches are never silently reused
across incompatible library versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import time
import weakref
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Type

import networkx as nx
import numpy as np

from repro.core.edits import GraphEdit, apply_edit_to_graph
from repro.core.params import SchemeParameters
from repro.core.types import NodeId
from repro.metric.graph_metric import GraphMetric, _edge_array, _relabelled
from repro.nets.hierarchy import NetHierarchy
from repro.observability.profile import BuildProfile
from repro.packing.ballpacking import BallPacking
from repro.pipeline.sampling import sample_ordered_pairs

#: Bump when artifact layout changes so on-disk caches self-invalidate.
#: v2: metric keys carry the normalization scale; schemes carry tracers.
#: v3: XOR-aggregated content keys + dependency-tracked invalidation.
#: v4: strategy-tagged metric cache keys; lazy metrics pickle only their
#: materialized rows (partial search state is recomputed on demand).
#: v5: the landmark scheme holds its vicinities as a sorted-key CSR, and
#: compiled-table keys digest that CSR's bytes.
#: v6: dense metrics pickle as a filled row store, and compiled-table
#: keys reuse the scheme's own cache key.
#: v7: schemes hold their search trees as one flat slot forest.
#: v8: schemes keep their header codec once built.
#: v9: ring schemes and the oracle hold one flat ring table; parameter
#: keys drop the tie-breaking flag.
#: v10: metrics no longer pickle a diameter-exactness flag.
#: v11: ring entries carry their next hop, search forests their edge
#: costs, and compact schemes compile without dense LUTs.
#: v12: landmark schemes hold per-node vicinity offsets, and their
#: compiled tables carry them as ``VIC_PTR``.
#: v13: compact schemes' compiled tables carry a weight column beside
#: every next-hop column and no edge table; landmark schemes no longer
#: keep their landmark distance matrix.
#: v14: ring tables and schemes carry no partition counts (schemes are
#: never rebuilt partially after an edit).
#: v15: graph content keys are one SHA-256 over the canonical edge array
#: (no XOR-aggregate key state).
#: v16: hierarchies and packings carry no partition counts (they are
#: never rebuilt partially after an edit).
#: v17: metrics pickle their edge array instead of a networkx graph.
CACHE_FORMAT_VERSION = 17


@dataclasses.dataclass
class BuildStats:
    """Hit/miss counters per artifact kind (for tests and logging).

    One count per whole artifact ("metric", "hierarchy", "scheme", ...),
    recorded by the context's memoizer.  Metric rows are counted by
    :meth:`BuildContext.substrate_stats`.
    """

    hits: Dict[str, int] = dataclasses.field(default_factory=dict)
    misses: Dict[str, int] = dataclasses.field(default_factory=dict)
    disk_hits: Dict[str, int] = dataclasses.field(default_factory=dict)

    def record(self, kind: str, outcome: str) -> None:
        counter = getattr(self, outcome)
        counter[kind] = counter.get(kind, 0) + 1

    def built(self, kind: str) -> int:
        """Number of artifacts of ``kind`` actually constructed."""
        return self.misses.get(kind, 0)


# -- content keys -------------------------------------------------------


def graph_content_key(graph: nx.Graph) -> str:
    """Content hash of a graph: nodes, edges, and exact weights.

    One SHA-256, taken afresh on every call, over the format version,
    ``n``, the node labels' ``repr`` (only when they are not
    ``0 .. n-1``) and the graph's canonical edge array: nodes relabelled
    as :class:`GraphMetric` relabels them, each edge a float64
    ``(min, max, weight)`` row, rows lexsorted.  Any change to the node
    set, the edge set, or a single edge weight changes the key, however
    the graph was mutated; the order edges were inserted in does not.
    """
    canonical, labels = _relabelled(graph)
    return _edges_key(
        len(labels),
        _edge_array(canonical),
        labels=repr(labels) if canonical is not graph else "",
    )


def _edges_key(n: int, edges: np.ndarray, labels: str = "") -> str:
    """The content key of ``n`` nodes (labelled ``labels``, when they
    are not ``0 .. n-1``) and ``(m, 3)`` edge rows ``u, v, weight``."""
    head = f"v{CACHE_FORMAT_VERSION}|n={n}|{labels}"
    rows = np.column_stack((np.sort(edges[:, :2], axis=1), edges[:, 2]))
    rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(head.encode() + rows.tobytes()).hexdigest()


def _rekey(obj: Any, old: str, new: str) -> Any:
    """Replace the old content hash inside a (nested) key tuple."""
    if obj == old:
        return new
    if isinstance(obj, tuple):
        return tuple(_rekey(item, old, new) for item in obj)
    return obj


def _mentions(obj: Any, key: str) -> bool:
    if obj == key:
        return True
    if isinstance(obj, tuple):
        return any(_mentions(item, key) for item in obj)
    return False


def params_key(params: SchemeParameters) -> Tuple[float]:
    """Canonical cache key of a :class:`SchemeParameters`."""
    return (params.epsilon,)


def _canonical_kwarg(value: Any) -> Any:
    """Hashable canonical form of a construction kwarg, or None.

    Substrate objects (hierarchies, schemes, ...) are intentionally not
    canonicalized: passing one explicitly bypasses memoization, since
    the context cannot prove two instances interchangeable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, type):
        return f"{value.__module__}.{value.__qualname__}"
    if isinstance(value, (list, tuple)):
        items = [_canonical_kwarg(v) for v in value]
        if any(item is _UNKEYABLE for item in items):
            return _UNKEYABLE
        return tuple(items)
    return _UNKEYABLE


_UNKEYABLE = object()


@dataclasses.dataclass
class EditReport:
    """What one :meth:`BuildContext.apply_edit` call did to the cache.

    Attributes:
        edit: The applied edit.
        old_key / new_key: Graph content keys before and after.
        carried: Artifacts moved to the new key untouched, per kind
            (pair samples, unless the node set changed).
        dropped: Artifacts discarded outright, per kind: every one keyed
            to the old graph but the carried ones, metrics included
            (each is built cold again on next demand).
        seconds: Wall-clock time spent repairing the cache.
        dirty / rows_reused / full_rebuild: Every node of the edited
            graph, 0 and ``True`` on every edit, since no metric row
            outlives an edit.  They stay because ``perfbench/workloads.py``
            reads them on every churn pass.
    """

    edit: GraphEdit
    old_key: str
    new_key: str
    carried: Dict[str, int]
    dropped: Dict[str, int]
    seconds: float
    dirty: FrozenSet[NodeId]
    rows_reused: int = 0
    full_rebuild: bool = True


class BuildContext:
    """Shared-substrate factory: build once, reuse everywhere.

    Args:
        cache_dir: Optional directory for the on-disk artifact cache
            (conventionally ``.repro-cache/``).  ``None`` (the default)
            keeps the cache in memory only.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._memory: Dict[Tuple, Any] = {}
        # Keyed by the metric *object* (weakly, so the cache never keeps
        # a metric alive): an id()-keyed dict would let a collected
        # metric's id be reused by a new one, which would then silently
        # inherit the wrong content key.
        self._metric_keys: "weakref.WeakKeyDictionary[GraphMetric, Tuple[str, float]]" = (
            weakref.WeakKeyDictionary()
        )
        # Cache key of every scheme this context built (weakly, like
        # _metric_keys); compiled() keys its tables off it.  Schemes it
        # cannot key get their tables memoized per instance instead.
        self._scheme_keys: "weakref.WeakKeyDictionary[Any, Tuple]" = (
            weakref.WeakKeyDictionary()
        )
        self._instance_tables: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self._cache_dir = cache_dir
        self.stats = BuildStats()
        self.profile = BuildProfile()
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    # -- keys -----------------------------------------------------------

    def metric_key(self, metric: GraphMetric) -> Tuple[str, float]:
        """Cache identity of a metric: ``(graph content hash, scale)``.

        Works for metrics built outside the context too: the hash is
        taken over the metric's own (relabelled) edge array
        (:attr:`GraphMetric.edges`) as :func:`graph_content_key` takes
        it over a graph's, so a graph edited after the metric was built
        never changes the metric's key.  The applied normalization scale
        is part of the key — ``GraphMetric(g)`` and
        ``GraphMetric(g, normalize=False)`` over a graph with min edge
        weight != 1 define *different* metrics and must never share
        hierarchies, packings, pairs, or schemes.
        """
        key = self._metric_keys.get(metric)
        if key is None:
            key = (_edges_key(metric.n, metric.edges), float(metric.scale))
            self._metric_keys[metric] = key
        return key

    # -- generic memoization -------------------------------------------

    def _get_or_build(self, kind: str, key: Tuple, builder) -> Any:
        full_key = (kind,) + key
        if full_key in self._memory:
            self.stats.record(kind, "hits")
            return self._memory[full_key]
        artifact = self._disk_load(kind, full_key)
        if artifact is None:
            # Timings are inclusive: a scheme's builder resolves its
            # substrates through the context, so their build time shows
            # up both under their own kind and inside the scheme's.
            with self.profile.timed("build", kind):
                artifact = builder()
            self.stats.record(kind, "misses")
            self._disk_store(kind, full_key, artifact)
        else:
            self.stats.record(kind, "disk_hits")
        self._memory[full_key] = artifact
        return artifact

    def _disk_path(self, kind: str, full_key: Tuple) -> Optional[str]:
        if self._cache_dir is None:
            return None
        digest = hashlib.sha256(repr(full_key).encode()).hexdigest()[:24]
        return os.path.join(self._cache_dir, f"{kind}-{digest}.pkl")

    def _disk_load(self, kind: str, full_key: Tuple) -> Any:
        path = self._disk_path(kind, full_key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle, self.profile.timed(
                "disk_load", kind
            ):
                stored_key, artifact = pickle.load(handle)
        except Exception:
            # Corrupt, truncated, or stale entries raise a grab-bag of
            # exceptions from deep inside pickle; any failure to load
            # just means "rebuild".
            return None
        if stored_key != full_key:  # digest collision (vanishingly rare)
            return None
        return artifact

    def _disk_store(self, kind: str, full_key: Tuple, artifact: Any) -> None:
        path = self._disk_path(kind, full_key)
        if path is None:
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle, self.profile.timed(
                "disk_store", kind
            ):
                pickle.dump((full_key, artifact), handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, RecursionError):
            # Unpicklable or disk-full artifacts simply stay memory-only.
            if os.path.exists(tmp):
                os.remove(tmp)

    # -- substrates -----------------------------------------------------

    def metric(
        self,
        graph: nx.Graph,
        normalize: bool = True,
        strategy: str = "auto",
        row_budget_bytes: Optional[int] = None,
    ) -> GraphMetric:
        """The shortest-path metric of ``graph``, built once per key.

        ``strategy`` and ``row_budget_bytes`` select and configure the
        substrate (see :class:`GraphMetric`) and are part of the cache
        key: a dense and a lazy metric over the same graph are distinct
        cached artifacts (a lazy pickle holds only materialized rows),
        but both answer queries identically, so everything *downstream*
        — hierarchies, packings, pairs, schemes — is keyed by
        :meth:`metric_key` (content hash + scale) and shared freely
        across strategies.
        """
        key = (graph_content_key(graph), normalize, strategy, row_budget_bytes)

        metric = self._get_or_build(
            "metric",
            key,
            lambda: GraphMetric(
                graph,
                normalize=normalize,
                strategy=strategy,
                row_budget_bytes=row_budget_bytes,
            ),
        )
        # Register the *applied* scale (not the normalize flag): with
        # min edge weight 1 both flags build the same metric, and keying
        # on the scale lets them share downstream artifacts.
        self._metric_keys.setdefault(metric, (key[0], float(metric.scale)))
        return metric

    def hierarchy(
        self, metric: GraphMetric, root: Optional[NodeId] = None
    ) -> NetHierarchy:
        """The ``2^i``-net hierarchy of ``metric``, built once."""
        key = (self.metric_key(metric), root)
        return self._get_or_build(
            "hierarchy", key, lambda: NetHierarchy(metric, root=root)
        )

    def packing(self, metric: GraphMetric) -> BallPacking:
        """The Lemma 2.3 ball packings of ``metric``, built once."""
        key = (self.metric_key(metric),)
        return self._get_or_build("packing", key, lambda: BallPacking(metric))

    def pairs(
        self, metric: GraphMetric, count: int, seed: int = 0
    ) -> List[Tuple[NodeId, NodeId]]:
        """Deterministic evaluation pairs, deduplicated across callers."""
        key = (self.metric_key(metric), metric.n, count, seed)
        return self._get_or_build(
            "pairs",
            key,
            lambda: sample_ordered_pairs(metric.n, count, seed=seed),
        )

    # -- schemes --------------------------------------------------------

    def scheme(
        self,
        scheme_cls: Type,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        **kwargs: Any,
    ) -> Any:
        """Build ``scheme_cls`` with substrates resolved via this context.

        The built scheme is memoized by ``(graph, class, params,
        kwargs)`` when every kwarg has a canonical value (ints, strings,
        classes, tuples of those).  Passing a live substrate object
        (``hierarchy=...``, ``underlying=...``) bypasses memoization of
        the scheme itself, but the substrates the class resolves through
        ``from_context`` are still shared.
        """
        if params is None:
            params = SchemeParameters()
        canonical = tuple(
            (name, _canonical_kwarg(value))
            for name, value in sorted(kwargs.items())
        )
        cls_name = f"{scheme_cls.__module__}.{scheme_cls.__qualname__}"
        if any(value is _UNKEYABLE for _, value in canonical):
            self.stats.record("scheme", "misses")
            with self.profile.timed("build", "scheme"):
                return scheme_cls.from_context(self, metric, params, **kwargs)
        key = (self.metric_key(metric), cls_name, params_key(params), canonical)
        scheme = self._get_or_build(
            "scheme",
            key,
            lambda: scheme_cls.from_context(self, metric, params, **kwargs),
        )
        self._scheme_keys[scheme] = key
        return scheme

    # -- compiled engine tables -----------------------------------------

    def compiled(self, scheme: Any) -> Any:
        """Batch-engine tables for a built scheme, memoized per scheme.

        A scheme built by :meth:`scheme` shares the cache key that
        method computed (metric identity, class, parameters and every
        construction kwarg), so two schemes differ in their tables
        exactly when they differ as artifacts, and ``apply_edit``
        drops the tables with the scheme.  A scheme built
        anywhere else has no such key; its tables are memoized on the
        instance (in memory only).
        """
        key = self._scheme_keys.get(scheme)
        if key is not None:
            return self._get_or_build("engine", key, scheme.compile_tables)
        tables = self._instance_tables.get(scheme)
        if tables is None:
            self.stats.record("engine", "misses")
            with self.profile.timed("build", "engine"):
                tables = scheme.compile_tables()
            self._instance_tables[scheme] = tables
        else:
            self.stats.record("engine", "hits")
        return tables

    # -- edits (churn) --------------------------------------------------

    def apply_edit(self, graph: nx.Graph, edit: GraphEdit) -> EditReport:
        """Apply ``edit`` to ``graph`` and drop the cache around it.

        The graph is mutated in place and hashed before and after the
        edit (``old_key``, ``new_key``).  Every artifact keyed to the
        old content hash is either *carried* (evaluation pairs, whose
        only dependency is ``n``, unless the node set changed) or
        *dropped* (metrics, hierarchies, packings, schemes and compiled
        tables, each built cold on next demand).  A metric holds its own
        edge array, never the graph, so stale metrics handed out earlier
        keep answering for the pre-edit graph, which is what the
        staleness-window routing in :mod:`repro.churn` relies on.
        """
        start = time.perf_counter()
        old_key = graph_content_key(graph)
        stale_keys = [
            full_key for full_key in self._memory if _mentions(full_key, old_key)
        ]
        apply_edit_to_graph(graph, edit)
        new_key = graph_content_key(graph)

        carried: Dict[str, int] = {}
        dropped: Dict[str, int] = {}
        for full_key in stale_keys:
            artifact = self._memory.pop(full_key)
            kind = full_key[0]
            # Pair samples depend only on (n, count, seed) — carry
            # unless the node set changed (then the key's n field is
            # stale anyway and the entry would never be hit).
            if kind == "pairs" and not edit.changes_node_set:
                self._memory[_rekey(full_key, old_key, new_key)] = artifact
                carried[kind] = carried.get(kind, 0) + 1
                self.stats.record(kind, "hits")
            else:
                dropped[kind] = dropped.get(kind, 0) + 1

        return EditReport(
            edit=edit,
            old_key=old_key,
            new_key=new_key,
            carried=carried,
            dropped=dropped,
            seconds=time.perf_counter() - start,
            dirty=frozenset(range(graph.number_of_nodes())),
        )

    def repair_rows(self, metric: GraphMetric, nodes: Iterable[NodeId]) -> int:
        """Re-solve corrupted table rows of ``metric`` in place.

        The table-integrity auditor (:mod:`repro.chaos.audit`) detects
        in-memory corruption of a metric's per-node rows; this method
        heals the quarantined nodes with :meth:`GraphMetric.splice_rows`,
        the per-row Dijkstra a cold build runs, so the repaired rows are
        bit-identical to a cold rebuild.  The time is accounted in this
        context's profile.

        Returns the number of rows re-solved.
        """
        dirty = sorted({int(v) for v in nodes})
        if not dirty:
            return 0
        with self.profile.timed("build", "metric"):
            metric.splice_rows(dirty)
        return len(dirty)

    # -- observability --------------------------------------------------

    def substrate_stats(self) -> Dict[str, int]:
        """Row-store counters summed over every live metric of this context.

        Aggregates :meth:`GraphMetric.substrate_stats` across the
        metrics this context has handed out (weakly tracked — collected
        metrics drop out).  ``rows_materialized`` is the headline
        number: how many full Dijkstra rows were ever solved, versus the
        ``sum(n)`` an eager APSP would have paid.
        """
        totals = {
            "rows_materialized": 0,
            "row_hits": 0,
            "row_misses": 0,
            "bounded_searches": 0,
            "nodes_settled": 0,
            "evictions": 0,
            "stored_bytes": 0,
        }
        for metric in list(self._metric_keys):
            stats = metric.substrate_stats()
            for key in totals:
                totals[key] += int(stats[key])
        return totals

    def profile_report(self) -> Dict[str, Any]:
        """Merged timing + hit/miss report (see ``BuildProfile.report``)."""
        return self.profile.report(self.stats, substrate=self.substrate_stats())

    def __repr__(self) -> str:
        kinds = sorted(
            set(self.stats.hits) | set(self.stats.misses) | set(self.stats.disk_hits)
        )
        parts = ", ".join(
            f"{kind}: {self.stats.hits.get(kind, 0)}h/"
            f"{self.stats.misses.get(kind, 0)}m"
            for kind in kinds
        )
        disk = "on" if self._cache_dir else "off"
        return f"BuildContext(disk={disk}, {parts})"
