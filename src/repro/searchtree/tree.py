"""Search trees on balls: Definition 3.2, Algorithms 1-2, Definition 4.2.

A *search tree* ``T(c, r)`` organizes the nodes of a ball ``B_c(r)`` into
a virtual tree of geometrically shrinking nets:

* ``U_0 = {c}``; for ``1 <= i <= ⌊log(εr)⌋``, ``U_i`` is a
  ``2^{⌊log(εr)⌋ - i}``-net of the ball minus all earlier levels.  The
  ``{U_i}`` partition the ball, each node connects to its nearest node one
  level up, and the root-to-leaf height is at most ``(1+ε)r`` (Eqn. 3).
* (key, data) pairs are stored by Algorithm 1: sort pairs by key, walk the
  tree depth-first, and hand each newly visited node the next ``⌈k/m⌉``
  pairs.  Every node also knows the key range held by its subtree and by
  each child's subtree.
* Algorithm 2 looks a key up by descending from the root into whichever
  child's range contains the key, then returns to the root; the round trip
  costs at most ``2(1+ε)r``.

The *search tree II* ``T'(c, r)`` of Definition 4.2 (used by the
scale-free labeled scheme) caps the number of net levels at ``⌈log n⌉``;
any leftover nodes — which exist only when ``εr > n`` — are chained into
paths hanging off their nearest bottom-level net point, with virtual edge
weight ``2εr/n`` (Lemma 4.3 realizes these edges at that cost).  Pass
``level_cap=metric.log_n`` to build this variant.

**Representation.**  A scheme keeps every tree it builds in one
:class:`SearchForest`: a flat slot space in which each tree is a
contiguous run of slots in depth-first preorder (children in child
order, which is increasing node id).  Per slot the forest holds the
graph node, the parent slot and the subtree's slot count; per tree, the
sorted keys and their data.  :class:`SearchTree` is a view over one
tree's slots, and a standalone ``SearchTree(...)`` is a one-tree forest.
The compiled engine's ``S_*`` arrays are these columns, gathered.

**Algorithm 1 in closed form.**  With ``k`` keys on ``m`` nodes and
``c = ⌈k/m⌉`` (at least 1), the node at preorder position ``p`` holds
the sorted keys ``[p·c, min((p+1)·c, k))``, and the subtree of ``s``
slots rooted there covers ``keys[p·c] … keys[min((p+s)·c, k) − 1]`` —
no range at all when ``p·c >= k``.  So storing is one sort per tree, no
node keeps per-node state, and the children that own a range are always
a prefix of the child list.

**Own rows.**  Every nearest-node choice (a tier member's parent, a
chain's site) reads the choosing node's own distance row through
:meth:`GraphMetric.nearest_many`, one call per tier: ``d(u, v)`` and
``d(v, u)`` may differ in the last bit, and ties are broken by least id
on exactly the distances the member itself would measure.  The same
rule fixes each tree edge's two costs (:meth:`SearchForest.fill_costs`):
the way down is measured on the parent's row, the way up on the
child's, and a search adds them up in trail order.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from collections import Counter
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.core.bitcount import bits_for_id
from repro.core.types import NodeId, PreprocessingError
from repro.metric.graph_metric import GraphMetric
from repro.nets.rnet import greedy_rnet


@dataclasses.dataclass
class SearchOutcome:
    """Result of one Algorithm-2 lookup.

    Attributes:
        found: Whether the key was present.
        data: The stored datum (``None`` when not found).
        trail: Nodes visited, starting and ending at the tree root
            (root, ..., deepest, ..., root).
        cost: Total distance travelled: shortest-path distance summed
            over consecutive trail entries.
    """

    found: bool
    data: Optional[object]
    trail: List[NodeId]
    cost: float


class SearchForest:
    """Many search trees in one flat slot space.

    Attributes:
        metric: The metric every tree was built on.
        node, parent, span: Per slot, the graph node, the parent slot
            (``-1`` at a root) and the subtree's slot count (slot ``s``
            roots the slots ``[s, s + span[s])``).
        down, up: Per slot, the cost of its tree edge: ``d(parent
            node, slot node)`` from the parent node's row and ``d(slot
            node, parent node)`` from the slot node's row (``0.0`` at a
            root; NaN until :meth:`fill_costs`).
        root, radius, chain_edges: Per tree, in build order: the root
            slot, the ball radius and the Definition 4.2 chain edges.
        keys, data: Per tree, the stored keys in sorted order and their
            aligned data (``None`` until the tree is stored).
    """

    def __init__(self, metric: GraphMetric) -> None:
        self.metric = metric
        self.node: List[NodeId] = []
        self.parent: List[int] = []
        self.span: List[int] = []
        self.down: List[float] = []
        self.up: List[float] = []
        self.root: List[int] = []
        self.radius: List[float] = []
        self.chain_edges: List[int] = []
        self.keys: List[Optional[list]] = []
        self.data: List[Optional[list]] = []

    def __len__(self) -> int:
        return len(self.root)

    def tree(self, t: int) -> "SearchTree":
        """The view of tree ``t``."""
        view = SearchTree.__new__(SearchTree)
        view._forest, view._tree = self, t
        return view

    def add(
        self,
        center: NodeId,
        radius: float,
        epsilon: float,
        members: Optional[Sequence[NodeId]] = None,
        level_cap: Optional[int] = None,
    ) -> "SearchTree":
        """Build ``T(center, radius)`` into the next slots; return its view.

        ``members`` defaults to ``B_center(radius)`` and must contain
        ``center``; ``level_cap`` builds the Definition 4.2 variant.
        """
        if radius < 0:
            raise PreprocessingError(f"negative ball radius {radius}")
        metric = self.metric
        if members is None:
            members = metric.ball(center, radius)
        members = sorted(set(members))
        if center not in members:
            raise PreprocessingError("center must belong to the ball")
        scaled = epsilon * radius
        full_levels = int(math.floor(math.log2(scaled))) if scaled >= 2 else 0
        levels = full_levels if level_cap is None else min(full_levels, level_cap)

        kids: Dict[NodeId, List[NodeId]] = {}
        remaining = [v for v in members if v != center]
        previous, reach = [center], None
        for i in range(1, levels + 1):
            if not remaining:
                break
            net_radius = float(2 ** (full_levels - i))
            tier = greedy_rnet(metric, net_radius, universe=remaining)
            parents = metric.nearest_many(tier, previous, hint=reach).tolist()
            for v, p in zip(tier, parents):
                kids.setdefault(p, []).append(v)
            placed = set(tier)
            remaining = [v for v in remaining if v not in placed]
            # The tier covers everything still remaining within its
            # radius: a tight first reach for the next tier's parents.
            previous, reach = tier, net_radius
        # Leftovers: uncapped trees bottom out at a 1-net, so only
        # degenerate radii (εr < 2) leave nodes, which hang off the root.
        # Capped ones chain them, in id order, under their nearest
        # bottom-level net point (Definition 4.2 (ii)).
        chained = levels < full_levels
        tail: Dict[NodeId, NodeId] = {}
        sites = metric.nearest_many(remaining, previous, hint=reach).tolist()
        for v, site in zip(remaining, sites):
            kids.setdefault(tail.get(site, site), []).append(v)
            if chained:
                tail[site] = v

        # Lay the tree out in preorder after the existing slots.
        base = len(self.node)
        stack = [(center, -1)]
        while stack:
            v, above = stack.pop()
            slot = len(self.node)
            self.node.append(v)
            self.parent.append(above)
            stack.extend((c, slot) for c in reversed(kids.get(v, ())))
        span = [1] * (len(self.node) - base)
        for s in range(len(self.node) - 1, base, -1):
            span[self.parent[s] - base] += span[s - base]
        self.span.extend(span)
        self.down.extend([0.0] + [math.nan] * (len(span) - 1))
        self.up.extend([0.0] + [math.nan] * (len(span) - 1))
        self.root.append(base)
        self.radius.append(radius)
        self.chain_edges.append(len(remaining) if chained else 0)
        self.keys.append(None)
        self.data.append(None)
        return self.tree(len(self.root) - 1)

    def fill_costs(self) -> None:
        """Measure every tree edge added since the last fill.

        Each edge ``(p, v)`` gets ``down = d(p, v)`` from row p and
        ``up = d(v, p)`` from row v — the distances a search sums — in
        one :meth:`GraphMetric.row_entries` pass.
        """
        down = np.asarray(self.down)
        todo = np.flatnonzero(np.isnan(down))
        if not todo.size:
            return
        node = np.asarray(self.node, dtype=np.int64)
        parent = node[np.asarray(self.parent, dtype=np.int64)[todo]]
        child = node[todo]
        # Down costs are read on parent rows, up costs on child rows.
        found, _ = self.metric.row_entries(
            np.concatenate((parent, child)), np.concatenate((child, parent))
        )
        up = np.asarray(self.up)
        down[todo], up[todo] = found[: todo.size], found[todo.size :]
        self.down, self.up = down.tolist(), up.tolist()

    def store(self, t: int, pairs: Dict[Hashable, object]) -> None:
        """Store ``pairs`` in tree ``t`` (Algorithm 1), replacing earlier
        pairs.  Keys must be totally ordered; the closed form places
        them, so this is one sort."""
        keys = sorted(pairs)
        self.keys[t] = keys
        self.data[t] = [pairs[key] for key in keys]

    def _stored(self, t: int) -> list:
        keys = self.keys[t]
        if keys is None:
            raise PreprocessingError("search tree used before store()")
        return keys

    def chunk(self, t: int) -> int:
        """``c = ⌈k/m⌉`` (at least 1): pairs per node of tree ``t``."""
        k = len(self._stored(t))
        m = self.span[self.root[t]]
        return max(1, (k + m - 1) // m)

    def slot_columns(self) -> Dict[str, np.ndarray]:
        """Per-slot numpy columns of the stored forest.

        ``node``, ``parent`` and ``span`` as held; ``kids`` (child
        count); and, as indices into the trees' keys concatenated in
        tree order, ``first`` (the first key the slot holds), ``held``
        (how many it holds) and ``stop`` (one past the last key of its
        subtree).  Algorithm 1's closed form gives all three.
        """
        node = np.asarray(self.node, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        span = np.asarray(self.span, dtype=np.int64)
        root = np.asarray(self.root, dtype=np.int64)
        k = np.asarray([len(self._stored(t)) for t in range(len(root))], dtype=np.int64)
        m = span[root]
        tree = np.repeat(np.arange(root.shape[0]), m)
        chunk = np.maximum(1, (k + m - 1) // m)[tree]
        low = (np.arange(node.shape[0]) - root[tree]) * chunk
        count, offset = k[tree], (np.cumsum(k) - k)[tree]
        return {
            "node": node,
            "parent": parent,
            "span": span,
            "kids": np.bincount(parent[parent >= 0], minlength=node.shape[0]),
            "first": offset + np.minimum(low, count),
            "held": np.clip(count - low, 0, chunk),
            "stop": offset + np.minimum(low + span * chunk, count),
        }

    def slot_bits(self, key_bits: int, data_bits: int) -> np.ndarray:
        """Bits each slot's node keeps for that slot's tree.

        Per tree node: one parent link label + one link label per child
        (underlying-scheme labels, ``⌈log n⌉`` bits each), its own
        subtree range and each child's range (two keys each), and its
        stored pairs (key + data each).
        """
        col = self.slot_columns()
        return (
            (col["kids"] + (col["parent"] >= 0)) * bits_for_id(self.metric.n)
            + (1 + col["kids"]) * 2 * key_bits
            + col["held"] * (key_bits + data_bits)
        )

    def storage_bits(self, key_bits: int, data_bits: int) -> np.ndarray:
        """Per node, the :meth:`slot_bits` of all its slots."""
        node = np.asarray(self.node, dtype=np.int64)
        bits = self.slot_bits(key_bits, data_bits)
        return np.bincount(node, bits, self.metric.n).astype(np.int64)


class SearchTree:
    """A search tree over the ball ``B_c(r)`` (or an explicit node set).

    Constructing one builds a one-tree :class:`SearchForest`; the trees
    of a scheme are views of that scheme's forest
    (:meth:`SearchForest.add`).

    Args:
        metric: Ambient metric.
        center: Ball center ``c`` (the tree root).
        radius: Ball radius ``r``.
        epsilon: The scheme's ``ε`` (controls the level count).
        members: Node set to organize; defaults to ``B_c(r)``.  Must
            contain ``center``.
        level_cap: If given, build the Definition 4.2 variant with at most
            this many net levels plus Voronoi chains underneath.
    """

    _forest: SearchForest
    _tree: int

    def __init__(
        self,
        metric: GraphMetric,
        center: NodeId,
        radius: float,
        epsilon: float,
        members: Optional[Sequence[NodeId]] = None,
        level_cap: Optional[int] = None,
    ) -> None:
        self._forest = SearchForest(metric)
        self._tree = 0
        self._forest.add(center, radius, epsilon, members, level_cap)
        self._forest.fill_costs()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def forest(self) -> SearchForest:
        return self._forest

    @property
    def index(self) -> int:
        """This tree's index in its forest."""
        return self._tree

    def _slots(self) -> range:
        start = self._forest.root[self._tree]
        return range(start, start + self._forest.span[start])

    def _slot_of(self, v: NodeId) -> Optional[int]:
        return next((s for s in self._slots() if self._forest.node[s] == v), None)

    def _child_slots(self, s: int) -> List[int]:
        return [c for c in self._slots() if self._forest.parent[c] == s]

    @property
    def root(self) -> NodeId:
        return self._forest.node[self._forest.root[self._tree]]

    @property
    def radius(self) -> float:
        return self._forest.radius[self._tree]

    @property
    def nodes(self) -> List[NodeId]:
        """All tree nodes (= the ball members), sorted."""
        return sorted(self._forest.node[s] for s in self._slots())

    @property
    def size(self) -> int:
        return len(self._slots())

    @property
    def chain_edge_count(self) -> int:
        """Number of Definition 4.2 chain edges (0 for plain trees)."""
        return self._forest.chain_edges[self._tree]

    def parent_of(self, v: NodeId) -> Optional[NodeId]:
        s = self._slot_of(v)
        if s is None or self._forest.parent[s] < 0:
            return None
        return self._forest.node[self._forest.parent[s]]

    def children_of(self, v: NodeId) -> List[NodeId]:
        s = self._slot_of(v)
        return [] if s is None else [self._forest.node[c] for c in self._child_slots(s)]

    def _depth(self, s: int) -> float:
        forest, cost = self._forest, 0.0
        while forest.parent[s] >= 0:
            cost += forest.down[s]
            s = forest.parent[s]
        return cost

    def depth_cost(self, v: NodeId) -> float:
        """Distance from the root to ``v`` along tree edges."""
        return self._depth(self._slot_of(v))

    def height(self) -> float:
        """Largest root-to-node distance along tree edges.

        Bounded by ``(1 + O(ε)) r`` (paper Eqn. 3 / Def. 4.2 remark).
        """
        return max(self._depth(s) for s in self._slots())

    def max_degree(self) -> int:
        parents = [self._forest.parent[s] for s in self._slots()]
        return max(Counter(p for p in parents if p >= 0).values(), default=0)

    # ------------------------------------------------------------------
    # Algorithms 1 and 2
    # ------------------------------------------------------------------

    def store(self, pairs: Dict[Hashable, object]) -> None:
        """Distribute ``pairs`` over the tree (Algorithm 1).

        Keys must be totally ordered (int or str); earlier pairs are
        replaced.  Each node receives a contiguous chunk of ``⌈k/m⌉``
        sorted pairs in depth-first visit order.
        """
        self._forest.store(self._tree, pairs)

    def pairs_at(self, v: NodeId) -> Dict[Hashable, object]:
        """The pairs Algorithm 1 placed at node ``v``."""
        forest, t = self._forest, self._tree
        c = forest.chunk(t)
        low = (self._slot_of(v) - forest.root[t]) * c
        return dict(zip(forest.keys[t][low : low + c], forest.data[t][low : low + c]))

    def search(self, key: Hashable) -> SearchOutcome:
        """Look up ``key`` (Algorithm 2): descend by range, round trip.

        The cost is the stored edge costs summed in trail order: down
        each edge of the descent, then up each in reverse.
        """
        forest, t = self._forest, self._tree
        keys = forest._stored(t)
        node, span = forest.node, forest.span
        start = s = forest.root[t]
        k, c = len(keys), forest.chunk(t)
        slots = [s]
        child, end = s + 1, s + span[s]
        while child < end:
            low = (child - start) * c
            if low >= k:
                break  # this child and every later sibling hold no key
            if keys[low] <= key <= keys[min(low + span[child] * c, k) - 1]:
                s = child
                slots.append(s)
                child, end = s + 1, s + span[s]
            else:
                child += span[child]
        low = min((s - start) * c, k)
        i = bisect.bisect_left(keys, key, low, min(low + c, k))
        found = i < min(low + c, k) and keys[i] == key
        trail = [node[s] for s in slots]
        trail += trail[-2::-1]
        down, up = forest.down, forest.up
        return SearchOutcome(
            found=found,
            data=forest.data[t][i] if found else None,
            trail=trail,
            cost=sum([down[s] for s in slots[1:]] + [up[s] for s in slots[:0:-1]]),
        )

    def lookup_everywhere(self, key: Hashable) -> bool:
        """Whether ``key`` is stored anywhere in the tree (test helper)."""
        keys = self._forest._stored(self._tree)
        i = bisect.bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def storage_bits(self, key_bits: int, data_bits: int) -> Dict[NodeId, int]:
        """Bits each tree node must keep for this tree
        (:meth:`SearchForest.slot_bits`)."""
        forest = self._forest
        forest._stored(self._tree)
        bits = forest.slot_bits(key_bits, data_bits).tolist()
        return {forest.node[s]: bits[s] for s in self._slots()}

    def __repr__(self) -> str:
        return (
            f"SearchTree(center={self.root}, r={self.radius:.3f}, "
            f"size={self.size})"
        )
