"""The rings ``X_i(u) = B_u(2^i/ε) ∩ Y_i`` as one table (paper §2, §4.1).

Each entry of node ``u`` is ``(i, x, lo, hi, d, hop)``: a net point
``x ∈ Y_i`` within ``2^i/ε`` of ``u``, its range ``Range(x, i) = [lo, hi]``,
``d = d(x, u)`` and ``hop = next_hop(u, x)``, the first hop of u's
canonical path to x.  Lemma 3.1 stores every level, Theorem 1.2 the
levels of ``R(u)``; the oracle's labels are the entries' ``(x, d)``
pairs, and the compiler pads the table into the engine's ``R_*``
matrices.  Block ``(i, x)`` — x's entry in every ring — is read from x's
own ball, so its members and distances depend on row x alone; each
entry's hop comes from its owner's row u (``GraphMetric.row_entries``), as
a node's forwarding state should.  Per node the entries run in
ascending level, then ``hierarchy.net(i)`` order: the order the ring
walks scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import NodeId
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy

RingEntry = Tuple[int, NodeId, int, int, float, NodeId]


class Rings:
    """Every node's ring entries, one python list per node.

    ``stored_levels`` keeps per node only its levels (Theorem 1.2's
    ``R(u)``; only levels some node keeps are queried).
    ``next_hops=False`` leaves every hop ``-1`` and reads no row (the
    distance oracle's labels need none).
    """

    def __init__(
        self,
        metric: GraphMetric,
        hierarchy: NetHierarchy,
        epsilon: float,
        stored_levels: Optional[Sequence[Sequence[int]]] = None,
        next_hops: bool = True,
    ) -> None:
        keep = None
        if stored_levels is not None:
            keep = np.zeros((hierarchy.top_level + 1, metric.n), dtype=bool)
            for u, levels in enumerate(stored_levels):
                keep[list(levels), u] = True
        blocks, heads = [(np.zeros(0, dtype=np.int64), np.zeros(0))], []
        for i in hierarchy.levels:
            if keep is not None and not keep[i].any():
                continue
            for x in hierarchy.net(i):
                ids, dist = metric.ball_with_distances(x, 2.0**i / epsilon)
                if keep is not None:
                    held = keep[i][ids]
                    ids, dist = ids[held], dist[held]
                blocks.append((ids, dist))
                heads.append((i, x) + hierarchy.range_of(x, i))
        owner = np.concatenate([ids for ids, _ in blocks])
        dist = np.concatenate([block_dist for _, block_dist in blocks])
        head = np.repeat(
            np.asarray(heads, dtype=np.int64).reshape(-1, 4),
            [len(ids) for ids, _ in blocks[1:]],
            axis=0,
        )
        # A stable sort by node keeps block (level, then net) order; the
        # walks scan python tuples, faster than numpy on short rows.
        order = np.argsort(owner, kind="stable")
        owner, head, dist = owner[order].astype(np.int64), head[order], dist[order]
        hop = np.full(owner.shape[0], -1, dtype=np.int64)
        if next_hops:
            hop = metric.row_entries(owner, head[:, 1])[1]
        flat = list(zip(*head.T.tolist(), dist.tolist(), hop.tolist()))
        bounds = np.searchsorted(owner, np.arange(metric.n + 1)).tolist()
        self._rows = [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every entry's node, and its ``(i, x, lo, hi, d, hop)`` as floats."""
        node = np.repeat(np.arange(len(self._rows)), [len(row) for row in self._rows])
        table = np.array([e for row in self._rows for e in row], dtype=np.float64)
        return node, table.reshape(-1, 6)

    def count(self, u: NodeId) -> int:
        return len(self._rows[u])

    def entries(self, u: NodeId) -> List[RingEntry]:
        return list(self._rows[u])

    def ring(self, u: NodeId, i: int) -> Dict[NodeId, Tuple[int, int, float]]:
        """``X_i(u)`` as ``x -> (lo, hi, d)``, in net order."""
        return {x: (lo, hi, d) for level, x, lo, hi, d, _ in self._rows[u] if level == i}

    def hit(self, u: NodeId, label: int) -> Optional[RingEntry]:
        """u's first entry covering ``label`` (at the least level), or None."""
        for entry in self._rows[u]:
            if entry[2] <= label <= entry[3]:
                return entry
        return None

    def arrays(self) -> Dict[str, np.ndarray]:
        """Each column padded to ``n × width``, rows in scan order.

        Padding has ``lo = 1 > hi = 0``, so it never covers a label and
        the first covering column is a plain ``argmax``.
        """
        node, table = self._columns()
        counts = np.bincount(node, minlength=len(self._rows))
        shape = (len(self._rows), max(1, int(counts.max(initial=0))))
        column = np.arange(len(node)) - np.repeat(np.cumsum(counts) - counts, counts)
        out = {}
        columns = (("LO", 2), ("HI", 3), ("X", 1), ("LVL", 0), ("D", 4), ("NH", 5))
        for name, k in columns:
            dtype = np.float64 if name == "D" else np.int64
            out["R_" + name] = np.full(shape, int(name == "LO"), dtype=dtype)
            out["R_" + name][node, column] = table[:, k]
        return out

