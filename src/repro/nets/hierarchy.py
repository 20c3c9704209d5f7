"""The nested 2^i-net hierarchy, zooming sequences, and netting tree.

This implements paper §2 verbatim:

* ``Y_{log Δ}`` is a singleton (we pick node 0 — the paper allows any
  node), and each ``Y_i`` is obtained by greedily expanding ``Y_{i+1}``
  into a ``2^i``-net, so ``Y_{log Δ} ⊆ ... ⊆ Y_1 ⊆ Y_0 = V`` (Eqn. 1).
* The *zooming sequence* of ``u`` is ``u(0) = u`` and ``u(i)`` = the
  nearest node of ``Y_i`` to ``u(i-1)`` (least-id tie-breaking), so
  ``Σ_k d(u(k-1), u(k)) < 2^{i+1}`` (Eqn. 2).
* The *netting tree* ``T({Y_i})`` joins every node's zooming sequence; its
  leaves are ``Y_0 = V``.  Following §4.1, the labeled schemes use the DFS
  leaf enumeration ``l(v)`` of this tree and the contiguous subtree ranges
  ``Range(x, i)``, which satisfy ``l(u) ∈ Range(x, i)  iff  x = u(i)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.types import NodeId, PreprocessingError
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.nets.rnet import greedy_rnet


class NetHierarchy:
    """Nested ``2^i``-nets with zooming sequences and DFS labels.

    Args:
        metric: Connected graph metric with min distance normalized to 1.
        root: Optional choice for the single member of the top net
            ``Y_{log Δ}`` (defaults to node 0).
    """

    def __init__(self, metric: GraphMetric, root: Optional[NodeId] = None) -> None:
        self._metric = metric
        self._root = 0 if root is None else root
        if not 0 <= self._root < metric.n:
            raise PreprocessingError(f"root {self._root} out of range")
        # For diameter-1 metrics (e.g. unit cliques) log Δ = 0 but the
        # top net must still be the singleton {root} while Y_0 = V, so
        # the hierarchy needs at least two levels whenever n > 1.
        self._top = max(metric.log_diameter, 1 if metric.n > 1 else 0)
        self._nets: List[List[NodeId]] = self._build_nets()
        self._net_sets = [set(net) for net in self._nets]
        # _parent[i][x] for x in Y_{i-1}: nearest node of Y_i (ties by id).
        self._parent: List[Dict[NodeId, NodeId]] = self._build_parents()
        self._labels, self._ranges = self._build_netting_tree()
        #: Partition accounting for BuildStats.fold: {kind: (reused,
        #: built)}.  A cold build constructs every partition.
        self.build_report: Dict[str, Tuple[int, int]] = {
            "hierarchy_level": (0, self._top),
            "zoom_parent": (
                0,
                sum(len(self._nets[i - 1]) for i in range(1, self._top + 1)),
            ),
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_nets(self) -> List[List[NodeId]]:
        nets: List[List[NodeId]] = [[] for _ in range(self._top + 1)]
        nets[self._top] = [self._root]
        for i in range(self._top - 1, -1, -1):
            nets[i] = greedy_rnet(
                self._metric, float(2**i), seed=nets[i + 1]
            )
        if len(nets[0]) != self._metric.n:
            raise PreprocessingError(
                "Y_0 != V: minimum distance below 1 — was the metric "
                "normalized?"
            )
        return nets

    def _build_parents(self) -> List[Dict[NodeId, NodeId]]:
        return [dict()] + [
            _nearest_parents(self._metric, self._nets, i, self._nets[i - 1])
            for i in range(1, self._top + 1)
        ]

    def _build_netting_tree(
        self,
    ) -> Tuple[Dict[NodeId, int], List[Dict[NodeId, Tuple[int, int]]]]:
        """DFS the netting tree; return leaf labels and subtree ranges."""
        # children[i][y] = sorted list of x in Y_{i-1} with parent(x, i)=y.
        children: List[Dict[NodeId, List[NodeId]]] = [dict()]
        for i in range(1, self._top + 1):
            level_children: Dict[NodeId, List[NodeId]] = {}
            for x, y in self._parent[i].items():
                level_children.setdefault(y, []).append(x)
            for y in level_children:
                level_children[y].sort()
            children.append(level_children)

        labels: Dict[NodeId, int] = {}
        ranges: List[Dict[NodeId, Tuple[int, int]]] = [
            dict() for _ in range(self._top + 1)
        ]
        next_label = 0
        # Iterative DFS over (node, level) pairs; post-processing pass
        # records ranges once a subtree is fully explored.
        stack: List[Tuple[NodeId, int, bool]] = [(self._root, self._top, False)]
        lows: Dict[Tuple[NodeId, int], int] = {}
        while stack:
            x, i, done = stack.pop()
            if done:
                ranges[i][x] = (lows[(x, i)], next_label - 1)
                continue
            lows[(x, i)] = next_label
            if i == 0:
                labels[x] = next_label
                next_label += 1
                ranges[0][x] = (labels[x], labels[x])
                continue
            stack.append((x, i, True))
            for child in reversed(children[i].get(x, [])):
                stack.append((child, i - 1, False))
        if next_label != self._metric.n:
            raise PreprocessingError(
                f"netting tree has {next_label} leaves, expected "
                f"{self._metric.n}"
            )
        return labels, ranges

    # ------------------------------------------------------------------
    # Incremental rebuild (churn pipeline)
    # ------------------------------------------------------------------

    def level_dependencies(self, i: int) -> FrozenSet[NodeId]:
        """Nodes whose metric rows level ``i``'s net was derived from.

        Greedy net construction reads only the distance rows of the
        accumulated members (the ``mindist`` array in ``greedy_rnet`` is
        a running minimum over member rows), so a net level replays
        identically whenever those rows are clean and the seed level is
        unchanged.
        """
        return frozenset(self._nets[i])

    @classmethod
    def rebuilt(
        cls,
        metric: GraphMetric,
        previous: "NetHierarchy",
        dirty: FrozenSet[NodeId],
        root: Optional[NodeId] = None,
    ) -> "NetHierarchy":
        """Rebuild ``previous`` against an edited metric, level by level.

        ``dirty`` is the set of nodes whose distance rows may differ
        between ``previous.metric`` and ``metric``.  A net level is
        reused when its seed is unchanged and none of its members is
        dirty (see :meth:`level_dependencies`); zooming parents are
        recomputed only for dirty nodes or changed nets.  If every net
        and every parent comes out equal, ``previous`` itself is
        returned, rebased onto the new metric — the promotion that lets
        downstream schemes skip their own rebuilds.
        """
        root = 0 if root is None else root
        top = max(metric.log_diameter, 1 if metric.n > 1 else 0)
        if (
            metric.n != previous._metric.n
            or top != previous._top
            or root != previous._root
        ):
            return cls(metric, root=root)

        nets: List[List[NodeId]] = [[] for _ in range(top + 1)]
        nets[top] = [root]
        levels_reused = levels_built = 0
        for i in range(top - 1, -1, -1):
            seed_same = nets[i + 1] == previous._nets[i + 1]
            # Y_0 = V holds for any normalized metric independent of the
            # distance rows, so level 0 only needs its seed unchanged.
            members_clean = i == 0 or not (dirty & previous._net_sets[i])
            if seed_same and members_clean:
                nets[i] = previous._nets[i]
                levels_reused += 1
            else:
                nets[i] = greedy_rnet(metric, float(2**i), seed=nets[i + 1])
                levels_built += 1
        if len(nets[0]) != metric.n:
            raise PreprocessingError(
                "Y_0 != V: minimum distance below 1 — was the metric "
                "normalized?"
            )

        nets_same = [nets[i] == previous._nets[i] for i in range(top + 1)]
        parents: List[Dict[NodeId, NodeId]] = [dict()]
        parents_reused = parents_built = 0
        for i in range(1, top + 1):
            reusable_level = nets_same[i] and nets_same[i - 1]
            level_parent = dict(previous._parent[i]) if reusable_level else {}
            stale = [x for x in nets[i - 1] if x in dirty or not reusable_level]
            level_parent.update(_nearest_parents(metric, nets, i, stale))
            parents.append(level_parent)
            parents_built += len(stale)
            parents_reused += len(nets[i - 1]) - len(stale)

        report = {
            "hierarchy_level": (levels_reused, levels_built),
            "zoom_parent": (parents_reused, parents_built),
        }
        if all(nets_same) and parents == previous._parent:
            # Bit-identical structure: promote the stashed hierarchy,
            # rebased so its readers see post-edit distances.
            previous._metric = metric
            previous.build_report = report
            return previous

        fresh = object.__new__(cls)
        fresh._metric = metric
        fresh._root = root
        fresh._top = top
        fresh._nets = [
            previous._nets[i] if nets[i] == previous._nets[i] else nets[i]
            for i in range(top + 1)
        ]
        fresh._net_sets = [
            previous._net_sets[i]
            if fresh._nets[i] is previous._nets[i]
            else set(fresh._nets[i])
            for i in range(top + 1)
        ]
        fresh._parent = parents
        fresh._labels, fresh._ranges = fresh._build_netting_tree()
        fresh.build_report = report
        return fresh

    # ------------------------------------------------------------------
    # Net access
    # ------------------------------------------------------------------

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    @property
    def top_level(self) -> int:
        """Index of the highest level ``log Δ`` (singleton net)."""
        return self._top

    @property
    def levels(self) -> range:
        """All level indices ``0 .. log Δ``."""
        return range(self._top + 1)

    def net(self, i: int) -> List[NodeId]:
        """``Y_i``, sorted by node id."""
        return self._nets[i]

    def in_net(self, x: NodeId, i: int) -> bool:
        """Whether ``x ∈ Y_i``."""
        return x in self._net_sets[i]

    def highest_level_of(self, x: NodeId) -> int:
        """Largest ``i`` with ``x ∈ Y_i`` (0 for non-net nodes)."""
        lo, hi = 0, self._top
        # Nets are nested, so membership is monotone in the level.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if x in self._net_sets[mid]:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------------
    # Zooming sequences (paper Eqn. 2)
    # ------------------------------------------------------------------

    def parent(self, x: NodeId, i: int) -> NodeId:
        """``x``'s netting-tree parent: nearest node of ``Y_i`` to x.

        Requires ``x ∈ Y_{i-1}`` and ``1 <= i <= top_level``.
        """
        if not 1 <= i <= self._top:
            raise ValueError(f"level {i} out of range [1, {self._top}]")
        return self._parent[i][x]

    def zoom(self, u: NodeId, i: int) -> NodeId:
        """``u(i)``: the i-th element of u's zooming sequence."""
        x = u
        for k in range(1, i + 1):
            x = self._parent[k][x]
        return x

    def zooming_sequence(self, u: NodeId) -> List[NodeId]:
        """``⟨u(0), ..., u(log Δ)⟩``."""
        seq = [u]
        for k in range(1, self._top + 1):
            seq.append(self._parent[k][seq[-1]])
        return seq

    # ------------------------------------------------------------------
    # Netting-tree labels (paper §4.1)
    # ------------------------------------------------------------------

    def label(self, v: NodeId) -> int:
        """``l(v)``: DFS leaf index of ``v`` in the netting tree."""
        return self._labels[v]

    def node_with_label(self, label: int) -> NodeId:
        """Inverse of :meth:`label` (linear scan; test helper)."""
        for v, l in self._labels.items():
            if l == label:
                return v
        raise KeyError(label)

    def range_of(self, x: NodeId, i: int) -> Tuple[int, int]:
        """``Range(x, i)``: leaf-label interval of x's level-i subtree."""
        return self._ranges[i][x]

    def label_in_range(self, label: int, x: NodeId, i: int) -> bool:
        """Whether ``label ∈ Range(x, i)``."""
        lo, hi = self._ranges[i][x]
        return lo <= label <= hi

    # ------------------------------------------------------------------
    # Rings (paper §4.1): X_i(u) = B_u(2^i / ε) ∩ Y_i
    # ------------------------------------------------------------------

    def ring(self, u: NodeId, i: int, epsilon: float) -> List[NodeId]:
        """``X_i(u)``: net points of ``Y_i`` within ``2^i/ε`` of u."""
        radius = (2.0**i) / epsilon
        members = self._metric.ball_set(u, radius)
        return [x for x in self._nets[i] if x in members]

    def zoom_cost_bound(self, i: int) -> float:
        """Paper Eqn. (2) bound: ``Σ_{k<=i} d(u(k-1),u(k)) < 2^{i+1}``."""
        return float(2 ** (i + 1))

    def __repr__(self) -> str:
        sizes = [len(net) for net in self._nets]
        return f"NetHierarchy(top={self._top}, net_sizes={sizes})"


def _nearest_parents(
    metric: GraphMetric,
    nets: List[List[NodeId]],
    i: int,
    members: List[NodeId],
) -> Dict[NodeId, NodeId]:
    """Zooming parents of ``members`` (a subset of ``Y_{i-1}``): each
    one's nearest point of ``Y_i``, ties within slack by least id.

    ``Y_i`` covers V at radius ``2^i``, so the nearest net point lies
    within ``2^i`` of every member — a tight first search limit.
    """
    found = metric.nearest_many(
        members, nets[i], tol=DISTANCE_SLACK, hint=float(2**i)
    )
    return dict(zip(members, found.tolist()))
