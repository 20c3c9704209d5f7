"""Stepwise local execution over the compiled per-node rows.

The paper's model (§1) lets a relay node read only its own routing table
and the packet header.  The compiled tables of the four compact schemes
hold exactly that per-node state.  Node ``u``'s ring entries are row
``u`` of the ``R_*`` matrices: range, ring point, level, distance, the
stored next hop ``R_NH`` and the weight ``R_W`` of the link it names
(port data: a node knows its own links).  Its search-tree state is the slots it
occupies: per slot the parent link, the up cost, the stored pairs and
one entry per child that owns a range (child link, range, down cost).

:func:`node_rows` cuts one node's rows out of a compiled table into
plain arrays and dicts.  The forwarders below take each decision from
one node's rows and the header alone, and the tests hold them hop for
hop to the interpreters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import RouteFailure
from repro.engine import compile_scheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme

RING = ("R_LO", "R_HI", "R_X", "R_LVL", "R_D", "R_NH", "R_W")


def node_rows(tables, u):
    """Node ``u``'s own rows of a compact scheme's compiled tables."""
    A = tables.arrays
    count = int((A["R_LO"][u] <= A["R_HI"][u]).sum())  # padding has lo > hi
    rows = {"node": u, "label": int(A["LBL"][u])}
    rows.update({name: A[name][u, :count].copy() for name in RING})
    slots = {}
    if "S_NODE" in A:
        span = int(A["S_SPAN"][0])
        for s in np.flatnonzero(A["S_NODE"] == u).tolist():
            parent = int(A["S_PARENT"][s])
            entries = np.flatnonzero(A["S_CH_PARENT"] == s)
            held = A["S_K_KEY"][s] >= 0  # padding holds key -1
            slots[s] = {
                "parent": parent,
                "parent_node": int(A["S_NODE"][parent]) if parent >= 0 else -1,
                "up": float(A["S_UP"][s]),
                "keys": A["S_K_KEY"][s][held].tolist(),
                "data": A["S_K_DATA"][s][held].tolist(),
                "children": [
                    (
                        int(A["S_CH_SLOT"][e]),
                        int(A["S_CH_KEY"][e]) - s * span,
                        int(A["S_CH_HI"][e]),
                        int(A["S_NODE"][A["S_CH_SLOT"][e]]),
                        float(A["S_DOWN"][A["S_CH_SLOT"][e]]),
                    )
                    for e in entries.tolist()
                ],
            }
    rows["slots"] = slots
    return rows


def ring_step(rows, label):
    """One Lemma 3.1 decision: ``None`` on arrival, else ``(hop,
    weight)`` of the first entry covering ``label``: its stored next hop
    and the weight of that link."""
    if rows["label"] == label:
        return None
    cover = (rows["R_LO"] <= label) & (label <= rows["R_HI"])
    if not cover.any():
        raise RouteFailure(f"node {rows['node']}: no ring covers label {label}")
    entry = cover.argmax()
    hop = int(rows["R_NH"][entry])
    if hop == rows["node"]:  # pragma: no cover - impossible for eps <= 1/2
        raise RouteFailure(f"node {rows['node']}: walk stalled")
    return hop, float(rows["R_W"][entry])


def forward(rows, header, bits, codec):
    """``ring_step`` on the decoded header, as a relay node runs it."""
    return ring_step(rows, codec.decode(header, bits)["target_label"])


def local_walk(views, codec, source, label):
    """The ring walk driven by per-node rows and an encoded header.

    Returns ``(path, cost)``, each hop charged from the row of the node
    that took it."""
    header, bits = codec.encode({"target_label": label})
    path, cost = [source], 0
    while (step := forward(views[path[-1]], header, bits, codec)) is not None:
        path.append(step[0])
        cost += step[1]
        if len(path) > 8 * len(views) + 8:  # pragma: no cover - defensive
            raise RouteFailure("stepwise walk failed to converge")
    return path, cost


def local_search(views, root_slot, key):
    """Algorithm 2 from per-node rows: each descent move reads the
    current slot's child entries, the turn its stored pairs, and each
    ascent move its parent link.  Returns ``(found, data, trail, cost)``."""
    node = next(u for u, rows in views.items() if root_slot in rows["slots"])
    slot, trail, costs = root_slot, [node], []
    while True:
        here = views[node]["slots"][slot]
        child = next((c for c in here["children"] if c[1] <= key <= c[2]), None)
        if child is None:
            break
        slot, node = child[0], child[3]
        trail.append(node)
        costs.append(child[4])
    found = key in here["keys"]
    data = here["data"][here["keys"].index(key)] if found else None
    while slot != root_slot:
        here = views[node]["slots"][slot]
        costs.append(here["up"])
        slot, node = here["parent"], here["parent_node"]
        trail.append(node)
    return found, data, trail, sum(costs)


@pytest.fixture(scope="module")
def stepwise(grid_metric):
    scheme = NonScaleFreeLabeledScheme(grid_metric)
    tables = compile_scheme(scheme)
    return scheme, {u: node_rows(tables, u) for u in grid_metric.nodes}


def forests_of(scheme):
    """``(slot offset, forest)`` in the order the compiler lays them out."""
    forests = [scheme.forest]
    if hasattr(getattr(scheme, "underlying", None), "forest"):
        forests.insert(0, scheme.underlying.forest)
    offset, out = 0, []
    for forest in forests:
        out.append((offset, forest))
        offset += len(forest.node)
    return out


class TestLocality:
    def test_local_nodes_hold_no_global_references(self, stepwise):
        _, views = stepwise
        for value in views[0].values():
            # Only ids, arrays and plain dicts: no metric, no hierarchy.
            assert isinstance(value, (int, np.ndarray, dict))
            assert not hasattr(value, "distances_from")
            assert not hasattr(value, "zooming_sequence")

    def test_ring_entries_reference_graph_neighbours(self, stepwise, grid_metric):
        _, views = stepwise
        for u in grid_metric.nodes:
            for hop in views[u]["R_NH"].tolist():
                assert hop == u or grid_metric.graph.has_edge(u, hop)


class TestEquivalence:
    def test_paths_match_monolithic_implementation(self, stepwise, grid_metric):
        scheme, views = stepwise
        codec = scheme.header_codec()
        for u in range(0, grid_metric.n, 5):
            for v in range(0, grid_metric.n, 3):
                if u == v:
                    continue
                label = scheme.routing_label(v)
                assert local_walk(views, codec, u, label)[0] == scheme.route(u, v).path

    def test_all_families(self, any_metric, params):
        scheme = NonScaleFreeLabeledScheme(any_metric, params)
        tables = compile_scheme(scheme)
        views = {u: node_rows(tables, u) for u in any_metric.nodes}
        codec = scheme.header_codec()
        for u in range(0, any_metric.n, 6):
            for v in range(0, any_metric.n, 4):
                if u == v:
                    continue
                label = scheme.routing_label(v)
                path, cost = local_walk(views, codec, u, label)
                assert path == scheme.route(u, v).path
                # Bit for bit: the same hops summed in the same order.
                assert cost == scheme.walk_to_label(u, label)[1]

    def test_self_route(self, stepwise):
        scheme, views = stepwise
        codec = scheme.header_codec()
        assert local_walk(views, codec, 7, scheme.routing_label(7)) == ([7], 0)

    def test_name_independent_legs_walk_the_stored_hops(self, nameind_simple, grid_metric):
        # Theorem 1.4's zoom and final legs are Lemma 3.1 walks.
        tables = compile_scheme(nameind_simple)
        views = {u: node_rows(tables, u) for u in grid_metric.nodes}
        underlying = nameind_simple.underlying
        codec = underlying.header_codec()
        for u in range(0, grid_metric.n, 4):
            for v in range(1, grid_metric.n, 5):
                label = underlying.routing_label(v)
                assert local_walk(views, codec, u, label) == underlying.walk_to_label(u, label)

    @pytest.mark.parametrize("fixture", ["labeled_sf", "nameind_simple", "nameind_sf"])
    def test_search_trees_match_interpreter(self, fixture, request, grid_metric):
        scheme = request.getfixturevalue(fixture)
        tables = compile_scheme(scheme)
        views = {u: node_rows(tables, u) for u in grid_metric.nodes}
        probes = list(range(-1, grid_metric.n + 1, 3))
        for offset, forest in forests_of(scheme):
            for t in range(0, len(forest), 3):
                tree = forest.tree(t)
                root = offset + forest.root[t]
                for key in probes + forest.keys[t][::4]:
                    want = tree.search(key)
                    got = local_search(views, root, key)
                    assert got == (want.found, want.data, want.trail, want.cost)


class TestSerialization:
    def test_header_is_codec_sized(self, stepwise):
        scheme, _ = stepwise
        data, bits = scheme.header_codec().encode({"target_label": 5})
        assert bits == scheme.header_codec().total_bits
        assert len(data) == (bits + 7) // 8

    def test_forward_rejects_uncovered_label(self, stepwise):
        scheme, views = stepwise
        codec = scheme.header_codec()
        # Keep only the level-0 entries; a far label is then uncovered.
        rows = dict(views[0])
        level0 = rows["R_LVL"] == 0
        for name in RING:
            rows[name] = rows[name][level0]
        far_label = scheme.routing_label(scheme.metric.n - 1)
        data, bits = codec.encode({"target_label": far_label})
        with pytest.raises(RouteFailure):
            forward(rows, data, bits, codec)
