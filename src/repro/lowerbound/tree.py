"""The lower-bound counterexample tree of §5.2 (Figure 3).

Given ``ε ∈ (0, 8)`` the construction uses ``p = ⌈72/ε⌉ + 6`` and
``q = ⌈48/ε⌉ - 4``.  The graph is a tree: a root ``u`` plus ``p·q``
spoke-paths ``T_{i,j}``; an edge of weight ``w_{i,j} = 2^i (q + j)``
connects the root to the *middle* node of path ``T_{i,j}``, whose
internal edges all have weight ``1/n``.  Path ``T_{i,j}`` holds
``n^{(iq+j+1)/(pq)} - n^{(iq+j)/(pq)}`` nodes, so the whole tree has
exactly ``n`` nodes, normalized diameter ``Δ = O(2^{1/ε} n)``, and
doubling dimension at most ``6 - log ε`` (Lemma 5.8).

For finite ``n`` the fractional-power path sizes are rarely integers;
we round them with the largest-remainder method subject to a minimum of
one node per path, which preserves ``|V| = n`` exactly and keeps every
spoke present.  (The counting argument of §5.1 is worked out exactly,
on the ideal sizes, in :mod:`repro.lowerbound.counting`.)
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

import networkx as nx

from repro.core.types import PreprocessingError


@dataclasses.dataclass
class LowerBoundTree:
    """The constructed counterexample.

    Attributes:
        graph: The weighted tree (node 0 is the root ``u``).
        epsilon: The ``ε`` the construction was built for.
        p, q: Spoke grid dimensions.
        root: Root node id (always 0).
        path_nodes: ``(i, j) -> list`` of the node ids of ``T_{i,j}``
            in path order.
        path_middle: ``(i, j) -> `` the middle node (attached to root).
        spoke_weight: ``(i, j) -> w_{i,j}``.
        ideal_sizes: ``(i, j) ->`` the paper's fractional path size.
    """

    graph: nx.Graph
    epsilon: float
    p: int
    q: int
    root: int
    path_nodes: Dict[Tuple[int, int], List[int]]
    path_middle: Dict[Tuple[int, int], int]
    spoke_weight: Dict[Tuple[int, int], float]
    ideal_sizes: Dict[Tuple[int, int], float]

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    def doubling_dimension_bound(self) -> float:
        """Lemma 5.8: ``α <= 6 - log ε`` (via ``log2(q + 2)``)."""
        return math.log2(self.q + 2)

    def diameter_bound(self) -> float:
        """``Δ <= 2 w_{p-1,q-1} · n`` (min distance is 1/n)."""
        w_max = (2.0 ** (self.p - 1)) * (self.q + self.q - 1)
        return 2.0 * w_max * self.n

    def farthest_spoke_nodes(self) -> List[int]:
        """Nodes of the outermost path ``T_{p-1,q-1}`` (the targets the
        adversary hides the special name in)."""
        return list(self.path_nodes[(self.p - 1, self.q - 1)])


def _spoke_sizes(n: int, p: int, q: int) -> Tuple[List[int], List[float]]:
    """Largest-remainder rounding of the paper's path sizes.

    Returns integer sizes (each >= 1, summing to ``n - 1``) and the
    ideal fractional sizes, both indexed by ``k = i·q + j``.
    """
    c = p * q
    if n - 1 < c:
        raise PreprocessingError(
            f"need n >= p*q + 1 = {c + 1} nodes, got {n}"
        )
    ideal = [
        n ** ((k + 1) / c) - n ** (k / c) for k in range(c)
    ]
    # Scale so the ideal masses total n - 1 (they do up to the root).
    total_ideal = sum(ideal)
    scaled = [x * (n - 1) / total_ideal for x in ideal]
    sizes = [max(1, int(math.floor(x))) for x in scaled]
    remainder = (n - 1) - sum(sizes)
    if remainder < 0:
        # Floors of tiny masses were bumped to 1; shave the largest.
        order = sorted(range(c), key=lambda k: -sizes[k])
        idx = 0
        while remainder < 0:
            k = order[idx % c]
            if sizes[k] > 1:
                sizes[k] -= 1
                remainder += 1
            idx += 1
    else:
        fractions = sorted(
            range(c), key=lambda k: -(scaled[k] - math.floor(scaled[k]))
        )
        for k in fractions:
            if remainder == 0:
                break
            sizes[k] += 1
            remainder -= 1
    assert sum(sizes) == n - 1
    return sizes, ideal


def lower_bound_tree(epsilon: float, n: int) -> LowerBoundTree:
    """Build the §5.2 counterexample for the given ``ε`` and ``n``.

    Args:
        epsilon: Target slack; the theorem shows stretch at least
            ``9 - ε`` for schemes with ``o(n^{(ε/60)²})``-bit tables.
        n: Number of nodes; must be at least ``p·q + 1``.
    """
    if not 0.0 < epsilon < 8.0:
        raise PreprocessingError("epsilon must be in (0, 8)")
    p = math.ceil(72.0 / epsilon) + 6
    q = math.ceil(48.0 / epsilon) - 4
    sizes, ideal = _spoke_sizes(n, p, q)

    graph = nx.Graph()
    root = 0
    graph.add_node(root)
    path_nodes: Dict[Tuple[int, int], List[int]] = {}
    path_middle: Dict[Tuple[int, int], int] = {}
    spoke_weight: Dict[Tuple[int, int], float] = {}
    ideal_sizes: Dict[Tuple[int, int], float] = {}
    next_id = 1
    for i in range(p):
        for j in range(q):
            k = i * q + j
            count = sizes[k]
            ids = list(range(next_id, next_id + count))
            next_id += count
            for a, b in zip(ids, ids[1:]):
                graph.add_edge(a, b, weight=1.0 / n)
            middle = ids[len(ids) // 2]
            weight = (2.0**i) * (q + j)
            graph.add_node(middle)
            graph.add_edge(root, middle, weight=weight)
            path_nodes[(i, j)] = ids
            path_middle[(i, j)] = middle
            spoke_weight[(i, j)] = weight
            ideal_sizes[(i, j)] = ideal[k]
    return LowerBoundTree(
        graph=graph,
        epsilon=epsilon,
        p=p,
        q=q,
        root=root,
        path_nodes=path_nodes,
        path_middle=path_middle,
        spoke_weight=spoke_weight,
        ideal_sizes=ideal_sizes,
    )
