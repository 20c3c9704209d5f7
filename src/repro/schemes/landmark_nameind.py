"""Name-independent landmark routing for the Internet-scale regime.

The paper's doubling-metric schemes build ``(1/ε)^O(α)``-size ring and
ball structures per level; on *non-doubling* power-law graphs (hub
neighbourhoods grow linearly, diameter is tiny) those structures degrade
to near-full tables and the constructions stop being compact long before
n = 10⁴.  Krioukov–Fall–Yang ("Compact Routing on Internet-Like
Graphs", PAPERS.md) study exactly this regime and observe that
landmark-style compact routing achieves *average* stretch close to 1 on
Internet-like topologies even though its worst-case guarantee is weak.

:class:`LandmarkNameIndependentScheme` reproduces that observation with
a construction whose preprocessing touches only ``k ≈ √n`` full metric
rows (the landmarks) plus one *size-bounded* vicinity search per node —
it is the scheme the substrate's rows-materialized ≪ n acceptance
criterion is asserted against:

* **Landmarks** ``L`` (``k = ⌈√n⌉``): farthest-point greedy.  Every
  node stores its parent in each landmark's shortest-path tree
  (``k`` entries — the climbing table).
* **Vicinity**: each node stores its ``s = ⌈√n⌉`` nearest nodes
  (ties by id) keyed by *name*, with the target node, its home
  landmark, and the next hop.
* **Name directory**: name ``t`` is registered at landmark
  ``L[t mod k]``, which stores ``(node, home landmark)`` for it —
  the name-independent resolution step (an O(√n)-per-landmark load).
* **Routing** ``u → name t``: walk toward the directory landmark
  along its tree until some vicinity contains ``t`` (shortcut) or the
  directory resolves ``t → (v, home)``; then toward ``home`` along
  home's tree; at ``home``, descend to ``v`` by source-routing along
  home's own shortest-path tree (the header carries the path suffix,
  ≤ tree-depth·log n bits — polylogarithmic on small-world graphs).
  A node that falls out of the vicinity shortcut re-enters the
  directory phases and shortcuts are disabled (one header bit), so the
  walk provably terminates.

There is **no constant worst-case stretch guarantee** — the vicinity +
directory detour can cost Θ(diameter) more than ``d(u, v)`` in
adversarial metrics (``stretch_guarantee`` returns ``None``).  The
point, following KFY, is the *measured average*: experiment E19 shows a
small constant mean stretch on preferential-attachment graphs at sizes
where the doubling-metric schemes are not even buildable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.schemes.base import NameIndependentScheme
from repro.schemes.cowen_landmark import greedy_landmarks


class LandmarkNameIndependentScheme(NameIndependentScheme):
    """KFY-style name-independent landmark routing (√n tables)."""

    name = "Landmark name-independent (Internet-scale)"
    #: Headers are sized by the :meth:`header_bits` formula: no codec.
    header_codec = None

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming: Optional[Sequence[int]] = None,
        landmark_count: Optional[int] = None,
        vicinity_size: Optional[int] = None,
    ) -> None:
        super().__init__(metric, params, naming)
        n = metric.n
        if landmark_count is None:
            landmark_count = max(1, min(n, math.isqrt(n - 1) + 1))
        if not 1 <= landmark_count <= n:
            raise PreprocessingError(
                f"landmark_count must be in [1, {n}]"
            )
        if vicinity_size is None:
            vicinity_size = max(1, min(n, math.isqrt(n - 1) + 1))
        if not 1 <= vicinity_size <= n:
            raise PreprocessingError(
                f"vicinity_size must be in [1, {n}]"
            )
        self._landmarks = greedy_landmarks(metric, landmark_count)
        self._landmark_index = {
            l: i for i, l in enumerate(self._landmarks)
        }
        # Landmark tree rows: the only full metric rows the scheme
        # reads.  d(v, l) and v's parent in l's tree both come from
        # here, so homes and climbing tables cost no extra searches.
        # The distances serve only to pick the homes and are not kept.
        landmark_dist = np.stack(
            [metric.distances_from(l) for l in self._landmarks]
        )
        self._landmark_pred = np.stack(
            [metric.predecessors_from(l) for l in self._landmarks]
        )
        # home[v] = nearest landmark (least landmark id on ties, which
        # argmin provides because self._landmarks is sorted).
        self._home: List[NodeId] = [
            self._landmarks[int(j)] for j in np.argmin(landmark_dist, axis=0)
        ]
        del landmark_dist
        # The depth pass's k × n temporaries are freed before the
        # vicinity arrays exist, so the two never add up in peak memory.
        self._tree_depth = self._max_tree_depth()
        (
            self._vic_ptr,
            self._vic_key,
            self._vic_tgt,
            self._vic_home,
            self._vic_hop,
        ) = self._build_vicinities(vicinity_size)
        self._directory = self._build_directory()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_vicinities(
        self, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every node's vicinity as one per-node CSR.

        Entry ``i`` is keyed ``VIC_KEY[i] = u·n + name`` (ascending, so
        node ``u``'s entries are the contiguous, name-sorted slice
        ``[ptr[u], ptr[u + 1])``) with the member node, its home
        landmark, and ``u``'s next hop toward it.  One size-bounded
        search per node — never a full row — and the first hops come
        from that search's own predecessor tree.
        """
        metric = self._metric
        n = metric.n
        members: List[np.ndarray] = []
        hops: List[np.ndarray] = []
        for u in metric.nodes:
            ids, _, hop = metric.size_ball_with_hops(u, size)
            keep = ids != u
            members.append(ids[keep])
            hops.append(hop[keep])
        counts = [m.shape[0] for m in members]
        tgt = np.concatenate(members).astype(np.int64)
        # u·n + name, with the owners u in node order.
        key = np.repeat(np.arange(n, dtype=np.int64) * n, counts)
        key += np.asarray(self._name_of, dtype=np.int64)[tgt]
        order = np.argsort(key)
        tgt = tgt[order]
        hop = np.concatenate(hops).astype(np.int64)[order]
        home = np.asarray(self._home, dtype=np.int64)[tgt]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, key[order], tgt, home, hop

    def _build_directory(self) -> List[Dict[int, Tuple[NodeId, NodeId]]]:
        """Per landmark index: name -> (node, home landmark)."""
        k = len(self._landmarks)
        directory: List[Dict[int, Tuple[NodeId, NodeId]]] = [
            {} for _ in range(k)
        ]
        for v in self._metric.nodes:
            name = self.name_of(v)
            directory[name % k][name] = (v, self._home[v])
        return directory

    def _max_tree_depth(self) -> int:
        """Max hop-depth over all landmark trees (header suffix bound).

        Pointer jumping over the whole ``k × n`` predecessor matrix:
        ``depth`` counts the edges from each node to its current jump
        target, and each round adds the target's count and squares the
        jump, so ⌈log₂ n⌉ rounds land every node of a tree on its root.
        """
        pred = self._landmark_pred
        k, n = pred.shape
        rows = np.arange(k)[:, None]
        root = pred < 0
        jump = np.where(root, np.arange(n), pred)
        depth = (~root).astype(np.int64)
        for _ in range((n - 1).bit_length() + 1):  # ⌈log₂ n⌉ + 1
            if root[rows, jump].all():
                return int(depth.max())
            depth = depth + depth[rows, jump]
            jump = jump[rows, jump]
        raise PreprocessingError("a landmark predecessor row is not a tree")

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def landmarks(self) -> List[NodeId]:
        return list(self._landmarks)

    def home_landmark(self, v: NodeId) -> NodeId:
        return self._home[v]

    def directory_landmark(self, name: int) -> NodeId:
        """The landmark holding ``name``'s directory entry."""
        return self._landmarks[name % len(self._landmarks)]

    def _vicinity_span(self, u: NodeId) -> Tuple[int, int]:
        """Node ``u``'s slice ``[lo, hi)`` of the vicinity CSR."""
        return int(self._vic_ptr[u]), int(self._vic_ptr[u + 1])

    def _vicinity_entry(self, u: NodeId, name: int) -> Optional[int]:
        """CSR position of ``name`` in ``u``'s vicinity, if present.

        Only ``u``'s own slice is searched: a node reads its own table.
        """
        lo, hi = self._vicinity_span(u)
        key = u * self._metric.n + name
        pos = lo + int(self._vic_key[lo:hi].searchsorted(key))
        if pos < hi and self._vic_key[pos] == key:
            return pos
        return None

    def vicinity_names(self, u: NodeId) -> List[int]:
        lo, hi = self._vicinity_span(u)
        return (self._vic_key[lo:hi] - u * self._metric.n).tolist()

    def vicinity_entries(
        self, u: NodeId
    ) -> List[Tuple[int, NodeId, NodeId, NodeId]]:
        """``u``'s vicinity rows ``(name, node, home, next hop)``, by name."""
        lo, hi = self._vicinity_span(u)
        return list(
            zip(
                self.vicinity_names(u),
                self._vic_tgt[lo:hi].tolist(),
                self._vic_home[lo:hi].tolist(),
                self._vic_hop[lo:hi].tolist(),
            )
        )

    def stretch_guarantee(self) -> Optional[float]:
        """No constant worst-case bound — this is the KFY trade-off."""
        return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _tree_hop(self, landmark: NodeId, x: NodeId) -> NodeId:
        """Next hop from ``x`` toward ``landmark`` along its tree.

        ``pred[landmark][x]`` is x's parent in the landmark's canonical
        shortest-path tree — the distributed "next hop toward landmark"
        entry every node stores.
        """
        return int(self._landmark_pred[self._landmark_index[landmark]][x])

    def _tree_path(self, landmark: NodeId, v: NodeId) -> List[NodeId]:
        """The canonical path landmark -> v (the source-route suffix)."""
        row = self._landmark_pred[self._landmark_index[landmark]]
        path = [v]
        while path[-1] != landmark:
            path.append(int(row[path[-1]]))
        path.reverse()
        return path

    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        metric = self._metric
        if name not in self._node_with_name:
            raise RouteFailure(f"unknown name {name}")
        if self.name_of(source) == name:
            return RouteResult(
                source=source,
                target=source,
                path=[source],
                cost=0.0,
                optimal=0.0,
                header_bits=self.header_bits(),
            )
        path = [source]
        legs = {
            "vicinity": 0.0,
            "to_directory": 0.0,
            "to_home": 0.0,
            "descent": 0.0,
        }
        current = source
        target: Optional[NodeId] = None
        home: Optional[NodeId] = None
        shortcuts_enabled = True
        guard = 4 * metric.n + 4 * self._tree_depth

        tracer = self._tracer

        def step(nxt: NodeId, leg: str) -> NodeId:
            weight = metric.edge_weight(current, nxt)
            legs[leg] += weight
            path.append(nxt)
            if len(path) > guard:  # pragma: no cover - defensive
                raise RouteFailure("landmark walk failed to converge")
            if tracer.enabled:
                tracer.event(
                    node=current,
                    phase=leg,
                    nodes=(nxt,),
                    cost=weight,
                    entry=f"{leg}[{name}] = {nxt}",
                    header_after={"target_name": name},
                )
            return nxt

        directory = self.directory_landmark(name)
        # Phase A/B: walk landmark trees toward the directory (then the
        # home) landmark; any vicinity hit short-circuits to phase V.
        while True:
            pos = (
                self._vicinity_entry(current, name)
                if shortcuts_enabled
                else None
            )
            if pos is not None:
                # Phase V: vicinity descent.  Each hop lies on the
                # canonical shortest path current -> target, so the
                # remaining distance strictly decreases while the
                # shortcut holds; if it breaks we fall back to the
                # directory walk and disable further shortcuts, which
                # restores the terminating tree-walk invariant.
                target = int(self._vic_tgt[pos])
                home = int(self._vic_home[pos])
                if current == target:
                    break
                current = step(int(self._vic_hop[pos]), "vicinity")
                if current == target:
                    break
                if self._vicinity_entry(current, name) is None:
                    shortcuts_enabled = False
                continue
            if target is None:
                if current == directory:
                    target, home = self._directory[
                        name % len(self._landmarks)
                    ][name]
                    continue
                current = step(self._tree_hop(directory, current), "to_directory")
                continue
            if current == target:
                break
            if current != home:
                current = step(self._tree_hop(home, current), "to_home")
                continue
            # Phase C: at the home landmark — source-route down its
            # tree (the header carries this suffix).
            for nxt in self._tree_path(home, target)[1:]:
                current = step(nxt, "descent")
            break
        assert target is not None
        return RouteResult(
            source=source,
            target=target,
            path=path,
            cost=sum(legs.values()),
            optimal=metric.distance(source, target),
            header_bits=self.header_bits(),
            legs=legs,
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def table_bits(self, v: NodeId) -> int:
        """Climbing entries + vicinity + (landmarks) directory and tree.

        Every node: ``k`` landmark-tree parents and ``|vicinity|``
        entries of (name, node, home, next hop).  A landmark
        additionally stores its directory shard and the parent pointer
        of every node in its own tree (what source-routed descent
        reads).
        """
        unit = bits_for_id(self._metric.n)
        k = len(self._landmarks)
        lo, hi = self._vicinity_span(v)
        bits = k * unit + (hi - lo) * 4 * unit
        idx = self._landmark_index.get(v)
        if idx is not None:
            bits += len(self._directory[idx]) * 3 * unit
            bits += self._metric.n * unit
        return bits

    def header_bits(self) -> int:
        """Name + resolved (node, home) + flags + source-route suffix."""
        unit = bits_for_id(self._metric.n)
        return 3 * unit + 2 + self._tree_depth * unit
