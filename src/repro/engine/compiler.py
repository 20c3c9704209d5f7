"""Table compiler: lower built schemes into flat numpy arrays.

Each ``compile_*`` function reads one scheme's tables (the ring table,
the search-tree forest, Voronoi trees, vicinity maps) and
emits a :class:`CompiledTables` — a named bundle of numpy arrays the
batch router can gather from without touching python objects.

Layouts (see DESIGN.md, "engine" section, for the full picture):

* **edge weights** — every next-hop column of the compact schemes has
  a float64 weight column beside it holding ``w(owner, hop)``: ``R_W``
  beside ``R_NH``, ``VIC_W`` beside ``VIC_HOP``, ``PRED_W`` beside the
  landmark parents ``PRED`` and ``T_W`` per tree-router slot (the
  weight of the edge to its parent, 0 at roots).  They are port data:
  a node knows the weights of its own links, so a hop is charged from
  the entry that chose it, and no table charges them as routing state.
  One helper (:func:`_hop_weights`) fills them at compile time from
  ``GraphMetric.edge_table`` (the exact ``edge_weight`` values, from
  the edge array the metric's searches run on, so runtime additions
  are bit-identical), a chunk of owners at a time, and raises
  :class:`NonEdgeHop` for a hop that is not its owner's neighbour.
  Padding and self entries weigh 0.  Only the shortest-path and Cowen
  baselines, whose dense ``NH`` has no entry column, keep the whole
  table as a sorted int64 key array ``EKEY = u*n + v`` with a parallel
  float64 ``EW`` and search it per hop;
* **dense LUTs** — canonical next hops ``NH[n, n]`` for the
  shortest-path and Cowen baselines only, whose tables are Θ(n) per
  node anyway (:data:`DENSE_LIMIT` guards the allocation), filled in
  one pass over ``GraphMetric.row_blocks``: 256-source blocks whose
  resident full rows are read as they are and whose other rows are
  solved in one batched search and installed.  The compact schemes
  compile from their own per-node state and never allocate n × n;
* **ring matrices** — ``Rings.arrays`` (:mod:`repro.nets.rings`):
  per-node ring entries padded to a rectangle, in the exact order of
  the interpreted scan (ascending level, then net order), each with
  its stored next hop ``R_NH`` (u's first hop toward the ring point,
  from u's own row); padding uses ``lo=1 > hi=0`` so it can never cover
  a label and first-match is a plain ``argmax``;
* **search-tree slots** — the scheme's ``SearchForest`` handed over:
  its trees already live in one slot space (each a preorder run, per
  slot its graph node, parent slot and the two costs of its tree edge,
  ``S_DOWN`` from the parent's row and ``S_UP`` from its own), so
  ``S_NODE``/``S_PARENT``/``S_ROOT``/``S_DOWN``/``S_UP`` are its columns
  concatenated (Theorem 1.1 appends its trees after its underlying
  scheme's).  The key columns are gathers through Algorithm 1's closed
  form: with ``k`` keys on ``m`` nodes and ``c = ⌈k/m⌉``, preorder
  position ``p`` holds sorted keys ``[p·c, min((p+1)·c, k))`` and a
  subtree of ``s`` slots covers ``keys[p·c] … keys[min((p+s)·c, k) −
  1]``.  The children that own a range are one flat column sorted by
  ``parent slot · S_SPAN + lo`` (``S_CH_*``): sibling ranges are
  disjoint and ascending, so the child covering a key is the last entry
  at or below ``slot · S_SPAN + key``, found by one ``searchsorted``;
* **Voronoi tree slots** — every ``T_c(j)`` tree-router flattened the
  same way with DFS ``tin/tout`` intervals per slot, plus a sorted
  ``(tree, node) -> slot`` key table for phase entry;
* **vicinity CSR** — the landmark scheme's vicinities as per-node
  offsets ``VIC_PTR`` over one int64 key array ``VIC_KEY = u*n + name``
  (node ``u``'s entries are the name-sorted slice ``[VIC_PTR[u],
  VIC_PTR[u+1])``) with parallel target / home / next-hop columns,
  exactly as the scheme builds and routes on them.  A lookup is a
  fixed-step binary search inside the current node's own slice; the
  step count ``vic_steps`` (the bit length of the largest slice) is a
  compile-time scalar.

All floating-point values are stored exactly as the interpreted tables
hold them; the batch router replays the interpreted loops' *addition
order* (see ``batch.py``), which together makes compiled costs
bit-identical, not merely close.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

import numpy as np

from repro.core.types import PreprocessingError

#: Largest n for which the compiler will allocate dense n×n LUTs: the
#: shortest-path and Cowen baselines.  Every other scheme compiles from
#: its own per-node tables at any n.
DENSE_LIMIT = 2048


#: Entries per :func:`_hop_weights` call in the weight passes, so their
#: lookup temporaries stay a few MB at any n.
_WEIGHT_CHUNK = 1 << 16


class EngineUnsupported(PreprocessingError):
    """The scheme (or its size regime) has no compiled lowering."""


class NonEdgeHop(PreprocessingError):
    """A stored next hop is not a neighbour of the node that stores it."""

    def __init__(self, node: int, hop: int) -> None:
        super().__init__(
            f"node {node} stores next hop {hop}, which is not its neighbour"
        )
        self.node = node
        self.hop = hop


@dataclasses.dataclass
class CompiledTables:
    """A scheme's routing tables, lowered to flat numpy arrays.

    Attributes:
        kind: Program selector for the batch router.
        n: Node count.
        header_bits: The scheme's (constant) header size.
        leg_names: Result-leg dict keys in scheme insertion order
            (empty for schemes whose results carry no legs).
        arrays: All compiled arrays, keyed by layout name.
        scalars: Compile-time constants (epsilon, level counts, guards).
    """

    kind: str
    n: int
    header_bits: int
    leg_names: Tuple[str, ...]
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, float]

    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self.arrays.values()))


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------


def _edge_tables(metric) -> Dict[str, np.ndarray]:
    """Sorted directed-edge keys and exact per-hop weights."""
    keys, weights = metric.edge_table()
    return {"EKEY": keys, "EW": weights}


def _edge_lookup(metric) -> Tuple[np.ndarray, np.ndarray]:
    """``metric.edge_table()`` closed by a key ``n²`` above every edge,
    so a lookup position never runs past the end."""
    keys, weights = metric.edge_table()
    return np.append(keys, metric.n**2), np.append(weights, 0.0)


def _hop_weights(edges, n: int, owner: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """``w(owner, hop)`` per entry, 0 where ``hop == owner``.

    ``edges`` is :func:`_edge_lookup`'s table and ``owner`` broadcasts
    against ``hop``; callers pass one chunk of owners at a time.
    Raises :class:`NonEdgeHop` naming the first entry whose hop is not
    a neighbour of its owner.
    """
    keys, weights = edges
    key = owner * n + hop
    pos = np.searchsorted(keys, key)
    move = hop != owner
    bad = move & (keys.take(pos, mode="clip") != key)
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NonEdgeHop(int(np.broadcast_to(owner, bad.shape)[at]), int(hop[at]))
    return np.where(move, weights.take(pos, mode="clip"), 0.0)


def _ring_weights(edges, rings: Dict[str, np.ndarray]) -> np.ndarray:
    """``R_W[u, c] = w(u, R_NH[u, c])``, one block of owner rows at a
    time; padding (``lo > hi``) and self entries hold 0."""
    nh = rings["R_NH"]
    n = nh.shape[0]
    out = np.empty(nh.shape, dtype=np.float64)
    step = max(1, _WEIGHT_CHUNK // nh.shape[1])
    for start in range(0, n, step):
        rows = slice(start, start + step)
        owner = np.arange(start, min(start + step, n), dtype=np.int64)[:, None]
        real = rings["R_LO"][rows] <= rings["R_HI"][rows]
        out[rows] = _hop_weights(edges, n, owner, np.where(real, nh[rows], owner))
    return out


def _nonempty(column: np.ndarray, fill: int) -> np.ndarray:
    """``column``, or a one-entry ``[fill]`` sentinel if it is empty."""
    return column if column.size else np.asarray([fill], dtype=np.int64)


def _dense_tables(metric) -> Dict[str, np.ndarray]:
    """Canonical next hops ``NH[u, v]`` (``NH[u, u] = u``): one pass over
    the metric's row blocks, each row solved at most once (see
    ``GraphMetric.row_blocks``)."""
    if metric.n > DENSE_LIMIT:
        raise EngineUnsupported(
            f"dense LUT compilation capped at n={DENSE_LIMIT} "
            f"(got n={metric.n}); only the shortest-path and Cowen "
            "baselines compile dense tables"
        )
    nh = np.empty((metric.n, metric.n), dtype=np.int64)
    for sources, _, hops in metric.row_blocks():
        nh[sources] = hops
    return {"NH": nh}


def _naming_tables(scheme) -> Dict[str, np.ndarray]:
    n = scheme.metric.n
    name_of = np.asarray(scheme._name_of, dtype=np.int64)
    node_of = np.empty(n, dtype=np.int64)
    node_of[name_of] = np.arange(n, dtype=np.int64)
    return {"NAMEOF": name_of, "NODEOF": node_of}


def _search_arrays(forests) -> Dict[str, np.ndarray]:
    """The ``S_*`` slot arrays of every tree in ``forests``, in order.

    The forests' slot columns are concatenated as they are (each tree
    is already a preorder run of slots); the range and key columns are
    gathers through Algorithm 1's closed form (``searchtree`` module
    docstring).  A child gets an entry only if its subtree holds a key —
    the interpreted descend never enters the others.
    """
    node, parent, down, up, root, first, held, stop, keys, data = (
        [] for _ in range(10)
    )
    slot_base = key_base = 0
    for forest in forests:
        col = forest.slot_columns()
        node.append(col["node"])
        parent.append(np.where(col["parent"] >= 0, col["parent"] + slot_base, -1))
        down.append(np.asarray(forest.down, dtype=np.float64))
        up.append(np.asarray(forest.up, dtype=np.float64))
        root.append(np.asarray(forest.root, dtype=np.int64) + slot_base)
        first.append(col["first"] + key_base)
        held.append(col["held"])
        stop.append(col["stop"] + key_base)
        keys.extend(key for stored in forest.keys for key in stored)
        data.extend(datum for stored in forest.data for datum in stored)
        slot_base += col["node"].shape[0]
        key_base = len(keys)
    node, parent, down, up, root, first, held, stop = map(
        np.concatenate, (node, parent, down, up, root, first, held, stop)
    )
    key = np.asarray(keys or [-1], dtype=np.int64)
    datum = np.asarray(data or [0], dtype=np.int64)

    # Children that own a range, sorted by (parent slot, range lo).
    child = np.nonzero((parent >= 0) & (held > 0))[0]
    span = int(key.max()) + 1 if keys else 1
    ch_key = parent[child] * span + key[first[child]]
    order = np.argsort(ch_key, kind="stable")
    child = child[order]

    slots = max(1, node.shape[0])
    kwidth = max(1, int(held.max()) if held.size else 1)
    column = np.arange(kwidth)
    mask = column < held[:, None]
    index = np.where(mask, first[:, None] + column, 0)
    k_key = np.full((slots, kwidth), -1, dtype=np.int64)
    k_data = np.zeros((slots, kwidth), dtype=np.int64)
    k_key[: node.shape[0]] = np.where(mask, key[index], -1)
    k_data[: node.shape[0]] = np.where(mask, datum[index], 0)
    return {
        "S_NODE": node if node.size else np.zeros(1, dtype=np.int64),
        "S_PARENT": parent if parent.size else np.full(1, -1, dtype=np.int64),
        "S_DOWN": down if down.size else np.zeros(1),
        "S_UP": up if up.size else np.zeros(1),
        "S_SPAN": np.asarray([span], dtype=np.int64),
        "S_CH_KEY": _nonempty(ch_key[order], -1),
        "S_CH_PARENT": _nonempty(parent[child], -1),
        "S_CH_SLOT": _nonempty(child, 0),
        "S_CH_HI": _nonempty(key[stop[child] - 1], -1),
        "S_K_KEY": k_key,
        "S_K_DATA": k_data,
        "S_ROOT": root if root.size else np.zeros(1, dtype=np.int64),
    }


class _TreeRouterPack:
    """Flatten :class:`TreeRouter` instances (DFS-interval routing)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.node: List[int] = []
        self.tin: List[int] = []
        self.tout: List[int] = []
        self.parent: List[int] = []
        self.children: List[List[Tuple[int, int, int]]] = []
        self.roots: List[int] = []
        self.slot_keys: List[int] = []
        self.slot_vals: List[int] = []

    def add(self, router) -> int:
        from repro.trees.tree_router import TreeRouter

        if not isinstance(router, TreeRouter):
            raise EngineUnsupported(
                "the engine lowers only DFS-interval TreeRouter trees, "
                f"not {type(router).__name__}"
            )
        tid = len(self.roots)
        tree = router.tree
        slot_of: Dict[int, int] = {}
        for v in sorted(router._tin):
            slot_of[v] = len(self.node)
            self.node.append(v)
            self.tin.append(router._tin[v])
            self.tout.append(router._tout[v])
            self.parent.append(-1)
            self.children.append([])
            self.slot_keys.append(tid * self.n + v)
            self.slot_vals.append(slot_of[v])
        for v, s in slot_of.items():
            if v != tree.root:
                self.parent[s] = slot_of[tree.parent_of(v)]
            # next_hop scans children_of(v) in order; keep it.
            for child in tree.children_of(v):
                self.children[s].append(
                    (slot_of[child], router._tin[child], router._tout[child])
                )
        self.roots.append(slot_of[tree.root])
        return tid

    def arrays(self) -> Dict[str, np.ndarray]:
        slots = max(1, len(self.node))
        width = max(1, max((len(c) for c in self.children), default=1))
        ch_slot = np.zeros((slots, width), dtype=np.int64)
        ch_tin = np.ones((slots, width), dtype=np.int64)
        ch_tout = np.zeros((slots, width), dtype=np.int64)
        for s, kids in enumerate(self.children):
            for col, (cs, tin, tout) in enumerate(kids):
                ch_slot[s, col] = cs
                ch_tin[s, col] = tin
                ch_tout[s, col] = tout
        order = np.argsort(np.asarray(self.slot_keys or [0], dtype=np.int64))
        return {
            "T_NODE": np.asarray(self.node or [0], dtype=np.int64),
            "T_TIN": np.asarray(self.tin or [0], dtype=np.int64),
            "T_TOUT": np.asarray(self.tout or [0], dtype=np.int64),
            "T_PARENT": np.asarray(self.parent or [-1], dtype=np.int64),
            "T_CH_SLOT": ch_slot,
            "T_CH_TIN": ch_tin,
            "T_CH_TOUT": ch_tout,
            "T_ROOT": np.asarray(self.roots or [0], dtype=np.int64),
            "T_SLOT_KEY": np.asarray(
                self.slot_keys or [0], dtype=np.int64
            )[order],
            "T_SLOT_VAL": np.asarray(
                self.slot_vals or [0], dtype=np.int64
            )[order],
        }


def _hierarchy_tables(hierarchy, n: int) -> Dict[str, np.ndarray]:
    lbl = np.asarray(
        [hierarchy.label(v) for v in range(n)], dtype=np.int64
    )
    top = hierarchy.top_level
    par = np.full((top + 1, n), -1, dtype=np.int64)
    for i in range(1, top + 1):
        for x in hierarchy.net(i - 1):
            par[i, x] = hierarchy.parent(x, i)
    return {"LBL": lbl, "PAR": par}


# ----------------------------------------------------------------------
# Per-scheme compilers
# ----------------------------------------------------------------------


def _compile_shortest_path(scheme) -> CompiledTables:
    metric = scheme.metric
    arrays = {
        **_edge_tables(metric),
        **_naming_tables(scheme),
        **_dense_tables(metric),
    }
    return CompiledTables(
        kind="shortest_path",
        n=metric.n,
        header_bits=scheme.header_bits(),
        leg_names=(),
        arrays=arrays,
        scalars={"max_sweeps": 4 * metric.n + 16},
    )


def _compile_cowen(scheme) -> CompiledTables:
    metric = scheme.metric
    n = metric.n
    cluster_keys: List[int] = []
    for u in metric.nodes:
        for v in scheme._clusters[u]:
            cluster_keys.append(u * n + v)
    is_lm = np.zeros(n, dtype=bool)
    is_lm[list(scheme._landmarks)] = True
    arrays = {
        **_edge_tables(metric),
        **_dense_tables(metric),
        "HOME": np.asarray(scheme._home, dtype=np.int64),
        "CL_KEY": np.sort(np.asarray(cluster_keys or [-1], dtype=np.int64)),
        "IS_LM": is_lm,
    }
    return CompiledTables(
        kind="cowen",
        n=n,
        header_bits=scheme.header_bits(),
        leg_names=("direct", "to_landmark", "from_landmark"),
        arrays=arrays,
        scalars={"max_sweeps": 4 * n + 16},
    )


def _ring_tables(scheme, edges) -> Dict[str, np.ndarray]:
    """The scheme's ``R_*`` ring matrices with their weight column ``R_W``."""
    rings = scheme._rings.arrays()
    rings["R_W"] = _ring_weights(edges, rings)
    return rings


def _compile_lns_core(scheme) -> Dict[str, np.ndarray]:
    """Ring walk tables shared by Lemma 3.1 and Theorem 1.4."""
    return {
        **_ring_tables(scheme, _edge_lookup(scheme.metric)),
        **_hierarchy_tables(scheme._hierarchy, scheme.metric.n),
    }


def _compile_labeled_nonsf(scheme) -> CompiledTables:
    metric = scheme.metric
    return CompiledTables(
        kind="labeled_nonsf",
        n=metric.n,
        header_bits=scheme.header_bits(),
        leg_names=("walk",),
        arrays=_compile_lns_core(scheme),
        scalars={
            "max_sweeps": 4
            * metric.n
            * (scheme._hierarchy.top_level + 2)
            + 16,
        },
    )


def _compile_nameind_simple(scheme) -> CompiledTables:
    from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme

    if not isinstance(scheme._underlying, NonScaleFreeLabeledScheme):
        raise EngineUnsupported(
            "nameind_simple compiles only over the Lemma 3.1 underlying"
        )
    metric = scheme.metric
    n = metric.n
    hierarchy = scheme._hierarchy
    tree_of = np.full((len(hierarchy.levels), n), -1, dtype=np.int64)
    for i in hierarchy.levels:
        for x, tree in scheme._trees[i].items():
            tree_of[i, x] = tree.index
    arrays = {
        **_compile_lns_core(scheme._underlying),
        **_naming_tables(scheme),
        **_search_arrays([scheme.forest]),
        "NS_TREE": tree_of,
    }
    return CompiledTables(
        kind="nameind_simple",
        n=n,
        header_bits=scheme.header_bits(),
        leg_names=("zoom", "search", "final"),
        arrays=arrays,
        scalars={
            "top_level": hierarchy.top_level,
            "max_sweeps": 16 * n * (hierarchy.top_level + 2) + 64,
        },
    )


def _compile_lsf_core(scheme) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Algorithm 5 tables (standalone and as the Theorem 1.1 inner machine).

    Returns the array and scalar dicts without the ``S_*`` slot arrays:
    the scale-free name-independent compiler lays its own trees out
    after the scheme's searchers, in one slot space.
    """
    metric = scheme.metric
    n = metric.n
    log_n = metric.log_n
    edges = _edge_lookup(metric)
    arrays = {
        **_ring_tables(scheme, edges),
        **_hierarchy_tables(scheme._hierarchy, n),
    }
    # r_u(u, j) columns with an +inf sentinel at j = log_n + 1 so the
    # first-j scan of _size_level_for vectorizes as one argmax.
    ru = np.empty((n, log_n + 2), dtype=np.float64)
    for u in metric.nodes:
        for j in range(log_n + 1):
            ru[u, j] = metric.r_u(u, j)
        ru[u, log_n + 1] = math.inf
    arrays["RU"] = ru
    arrays["VC"] = np.asarray(scheme._voronoi_center, dtype=np.int64)
    tr_pack = _TreeRouterPack(n)
    tree_id = np.full((log_n + 1, n), -1, dtype=np.int64)
    searcher_id = np.full((log_n + 1, n), -1, dtype=np.int64)
    for j in range(log_n + 1):
        for c, router in scheme._routers[j].items():
            tree_id[j, c] = tr_pack.add(router)
        for c, searcher in scheme._searchers[j].items():
            searcher_id[j, c] = searcher.index
    arrays.update(tr_pack.arrays())
    # One weight per slot serves both directions of its parent edge.
    node, parent = arrays["T_NODE"], arrays["T_PARENT"]
    arrays["T_W"] = _hop_weights(
        edges, n, node, np.where(parent >= 0, node[parent], node)
    )
    arrays["TR_ID"] = tree_id
    arrays["SR_ID"] = searcher_id
    from repro.metric.graph_metric import DISTANCE_SLACK

    scalars = {
        "eps": float(scheme.params.epsilon),
        "log_n": log_n,
        "slack": float(DISTANCE_SLACK),
        "max_sweeps": 16 * n * (scheme._hierarchy.top_level + 2) + 64,
    }
    return arrays, scalars


def _compile_labeled_sf(scheme) -> CompiledTables:
    arrays, scalars = _compile_lsf_core(scheme)
    arrays.update(_search_arrays([scheme.forest]))
    return CompiledTables(
        kind="labeled_sf",
        n=scheme.metric.n,
        header_bits=scheme.header_bits(),
        leg_names=("walk", "to_center", "search", "final"),
        arrays=arrays,
        scalars=scalars,
    )


def _compile_nameind_sf(scheme) -> CompiledTables:
    from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme

    if not isinstance(scheme._underlying, ScaleFreeLabeledScheme):
        raise EngineUnsupported(
            "nameind_sf compiles only over the Theorem 1.2 underlying"
        )
    metric = scheme.metric
    n = metric.n
    hierarchy = scheme._hierarchy
    arrays, scalars = _compile_lsf_core(scheme._underlying)
    # The scheme's trees follow the underlying scheme's searchers.
    base = len(scheme._underlying.forest)
    levels = hierarchy.top_level + 1
    own = np.full((levels, n), -1, dtype=np.int64)
    hlj = np.full((levels, n), -1, dtype=np.int64)
    hlc = np.full((levels, n), -1, dtype=np.int64)
    for (i, u), tree in scheme._own_trees.items():
        own[i, u] = base + tree.index
    packed_id = np.full((metric.log_n + 1, n), -1, dtype=np.int64)
    for (j, c), tree in scheme._packed_trees.items():
        packed_id[j, c] = base + tree.index
    for (i, u), (j, c) in scheme._h_links.items():
        hlj[i, u] = j
        hlc[i, u] = c
    arrays.update(_search_arrays([scheme._underlying.forest, scheme.forest]))
    arrays.update(_naming_tables(scheme))
    arrays["NSF_OWN"] = own
    arrays["NSF_HLJ"] = hlj
    arrays["NSF_HLC"] = hlc
    arrays["NSF_PACKED"] = packed_id
    scalars = dict(scalars)
    scalars["top_level"] = hierarchy.top_level
    scalars["max_sweeps"] = 64 * n * (hierarchy.top_level + 2) + 64
    return CompiledTables(
        kind="nameind_sf",
        n=n,
        header_bits=scheme.header_bits(),
        leg_names=("zoom", "search", "final"),
        arrays=arrays,
        scalars=scalars,
    )


def _landmark_weights(edges, n: int, pred: np.ndarray) -> np.ndarray:
    """``PRED_W[i, v] = w(v, PRED[i, v])``, one landmark row at a time;
    0 at the landmark itself (its ``PRED`` entry is negative)."""
    nodes = np.arange(n, dtype=np.int64)
    out = np.empty(pred.shape, dtype=np.float64)
    for i, row in enumerate(pred):
        out[i] = _hop_weights(edges, n, nodes, np.where(row < 0, nodes, row))
    return out


def _vicinity_weights(edges, n: int, key: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """``VIC_W[e] = w(u, VIC_HOP[e])`` for u the owner of entry ``e``
    (``VIC_KEY[e] // n``), one run of entries at a time."""
    out = np.empty(hop.shape, dtype=np.float64)
    for start in range(0, hop.shape[0], _WEIGHT_CHUNK):
        run = slice(start, start + _WEIGHT_CHUNK)
        out[run] = _hop_weights(edges, n, key[run] // n, hop[run])
    return out if out.size else np.zeros(1)


def _compile_landmark(scheme) -> CompiledTables:
    """The Internet-scale scheme: compiled from the arrays it holds.

    No dense LUTs — the landmark predecessor matrix and the per-node
    vicinity CSR (offsets ``VIC_PTR`` plus the key and entry columns)
    the scheme already holds are handed over as they are (``PRED`` is
    the scheme's own int32 matrix, not a copy); the compiler adds only
    the dense-by-name directory rows and the two weight columns
    ``PRED_W`` and ``VIC_W`` beside the next hops.  Compilation thus
    preserves the lazy substrate's rows-materialized ≪ n invariant.
    The batch router finds a name by a binary search of ``vic_steps``
    steps inside the current node's slice, never over the whole key
    array.
    """
    metric = scheme.metric
    n = metric.n
    edges = _edge_lookup(metric)
    k = len(scheme._landmarks)
    lm_index = np.full(n, -1, dtype=np.int64)
    for i, landmark in enumerate(scheme._landmarks):
        lm_index[landmark] = i
    name_of = np.asarray(scheme._name_of, dtype=np.int64)
    node_of = np.empty(n, dtype=np.int64)
    node_of[name_of] = np.arange(n, dtype=np.int64)
    # Directory rows, dense by name.
    dir_node = np.empty(n, dtype=np.int64)
    dir_home = np.empty(n, dtype=np.int64)
    for idx in range(k):
        for name, (node, home) in scheme._directory[idx].items():
            dir_node[name] = node
            dir_home[name] = home
    landmarks = np.asarray(scheme._landmarks, dtype=np.int64)
    names = np.arange(n, dtype=np.int64)
    arrays = {
        "NAMEOF": name_of,
        "NODEOF": node_of,
        "PRED": scheme._landmark_pred,
        "PRED_W": _landmark_weights(edges, n, scheme._landmark_pred),
        "LM_INDEX": lm_index,
        "DIR_LM": landmarks[names % k],
        "DIR_ROW": names % k,
        "DIR_NODE": dir_node,
        "DIR_HOME": dir_home,
        # The scheme's own vicinity CSR (per-node offsets over the
        # sorted key u*n + name), with one sentinel row when every
        # vicinity is empty.
        "VIC_PTR": scheme._vic_ptr,
        "VIC_KEY": _nonempty(scheme._vic_key, -1),
        "VIC_TGT": _nonempty(scheme._vic_tgt, 0),
        "VIC_HOME": _nonempty(scheme._vic_home, 0),
        "VIC_HOP": _nonempty(scheme._vic_hop, 0),
        "VIC_W": _vicinity_weights(edges, n, scheme._vic_key, scheme._vic_hop),
    }
    return CompiledTables(
        kind="landmark",
        n=n,
        header_bits=scheme.header_bits(),
        leg_names=("vicinity", "to_directory", "to_home", "descent"),
        arrays=arrays,
        scalars={
            "tree_depth": scheme._tree_depth,
            "vic_steps": int(np.diff(scheme._vic_ptr).max()).bit_length(),
            "max_sweeps": 2 * (4 * n + 4 * scheme._tree_depth) + 64,
        },
    )


def compile_scheme(scheme) -> CompiledTables:
    """Lower ``scheme``'s tables into a :class:`CompiledTables`."""
    from repro.schemes.cowen_landmark import CowenLandmarkScheme
    from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
    from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
    from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
    from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
    from repro.schemes.nameind_simple import SimpleNameIndependentScheme
    from repro.schemes.shortest_path import ShortestPathScheme

    dispatch = [
        (ShortestPathScheme, _compile_shortest_path),
        (CowenLandmarkScheme, _compile_cowen),
        (SimpleNameIndependentScheme, _compile_nameind_simple),
        (ScaleFreeNameIndependentScheme, _compile_nameind_sf),
        (ScaleFreeLabeledScheme, _compile_labeled_sf),
        (NonScaleFreeLabeledScheme, _compile_labeled_nonsf),
        (LandmarkNameIndependentScheme, _compile_landmark),
    ]
    for cls, compiler in dispatch:
        if isinstance(scheme, cls):
            return compiler(scheme)
    raise EngineUnsupported(
        f"no compiled lowering for {type(scheme).__qualname__}"
    )
