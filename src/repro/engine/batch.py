"""Vectorized batch router: advance all live packets one step per sweep.

The router is a register machine over :class:`~repro.engine.compiler.
CompiledTables`.  Every packet carries a small set of integer/float
registers (current node, phase, walk label, accumulated leg costs, …);
one *sweep* advances every live packet by exactly one transition — a
hop, one search-tree move, or a control action (directory resolution,
phase entry) — using numpy gathers and argmax reductions, with no
per-packet python on the hot path.

**Determinism contract** (see also the simulator's event queue): results
are returned in *injection-index order* — index ``i`` of the output
arrays is pair ``i`` of the input arrays, always.  All tie-breaking
inside a sweep replays the interpreted loops' first-match scans
(``argmax`` over the same entry order the python dicts iterate in), so
a batch route is a pure function of ``(tables, sources, targets)`` —
batch size, packet interleaving, and sweep count cannot change any
result.

**Bit-identity.** Costs are accumulated in the same order the
interpreted loops add them: per-hop weights fold left-to-right into the
active leg register, sub-route totals fold into the caller's leg on
completion, and the final cost is the left fold of the legs in scheme
insertion order — reproducing ``sum()`` bit for bit, not just to
tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.types import RouteFailure, RouteResult
from repro.engine.compiler import CompiledTables

__all__ = ["BatchRouter", "EngineError"]


class EngineError(RouteFailure):
    """The compiled machine reached a state the interpreter never would.

    A :class:`RouteFailure`, so one ``except RouteFailure`` handles a
    failed route from the interpreter and the engine alike.
    """


# Phase register values.  One machine (kind) is active per router, so
# constants are shared freely across kinds.
PH_DONE = 0
PH_SP = 1
PH_COWEN = 2
PH_WALK = 3  # ring walk (Lemma 3.1 / zoom & final legs of Theorem 1.4)
PH_SDESC = 4  # search-tree descent
PH_SASC = 5  # search-tree ascent (round trip back to the root)
PH_LWALK = 6  # Algorithm 5 phase 1
PH_LCENTER = 7  # tree-route to the Voronoi center
PH_LSDESC = 8
PH_LSASC = 9
PH_LFINAL = 10  # tree-route center -> destination
PH_LRET = 11  # Algorithm 5 returned (dispatch on the continuation)
PH_NDECIDE = 12  # Algorithm 4: own tree vs H-link
PH_NSDESC = 13  # outer (name) search descent
PH_NSASC = 14
PH_MITER = 15  # landmark scheme main loop
PH_MDESC = 16  # landmark scheme source-routed descent

# Walk roles for the simple name-independent machine.
ROLE_ZOOM = 0
ROLE_FINAL = 1

# Continuations for Algorithm 5 calls made by the scale-free
# name-independent machine.
C_STANDALONE = 0
C_HOUT = 1  # detour u -> serving center
C_HBACK = 2  # detour center -> u
C_ZOOM = 3
C_FINAL = 4


# ----------------------------------------------------------------------
# Small shared kernels
# ----------------------------------------------------------------------


def _validate_pairs(n: int, sources: Sequence[int], targets: Sequence[int]):
    """Input contract of :meth:`BatchRouter.route_arrays`: equal-length
    1-d integer arrays with every node id inside ``[0, n)``, returned as
    int64.  Floats and bools are rejected, never truncated."""
    src = np.asarray(sources)
    tgt = np.asarray(targets)
    if src.ndim != 1 or src.shape != tgt.shape:
        raise ValueError("sources/targets must be equal-length 1-d")
    if src.size and (src.dtype.kind not in "iu" or tgt.dtype.kind not in "iu"):
        raise ValueError("node ids must be integers")
    src = np.ascontiguousarray(src, dtype=np.int64)
    tgt = np.ascontiguousarray(tgt, dtype=np.int64)
    if src.size and (
        src.min() < 0 or src.max() >= n
        or tgt.min() < 0 or tgt.max() >= n
    ):
        raise ValueError("node id out of range")
    return src, tgt


def _lookup_sorted(keys: np.ndarray, q: np.ndarray):
    """(membership mask, position) of each ``q`` in sorted ``keys``."""
    pos = np.searchsorted(keys, q)
    pos = np.minimum(pos, keys.size - 1)
    return keys[pos] == q, pos


def _edge_w(A: Dict[str, np.ndarray], n: int, u: np.ndarray, v: np.ndarray):
    """Exact per-hop weights; raises if any (u, v) is not a graph edge.

    Only the shortest-path and Cowen machines search the edge table: their
    dense ``NH`` has no per-entry weight column.  The compact machines add
    the weight stored beside the entry that chose the hop.
    """
    ok, pos = _lookup_sorted(A["EKEY"], u * n + v)
    if not ok.all():
        bad = int(np.nonzero(~ok)[0][0])
        raise EngineError(
            f"hop {int(u[bad])} -> {int(v[bad])} is not a graph edge"
        )
    return A["EW"][pos]


def _fold_legs(legs: np.ndarray, width: int) -> np.ndarray:
    """Left fold of the leg columns — ``sum(legs.values())`` bit for bit."""
    total = np.zeros(legs.shape[0], dtype=np.float64)
    for col in range(width):
        total = total + legs[:, col]
    return total


def _first_cover(lo: np.ndarray, hi: np.ndarray, key: np.ndarray):
    """First column (row-wise) with ``lo <= key <= hi``; padding never
    covers (padded entries carry ``lo=1 > hi=0``)."""
    cover = (lo <= key[:, None]) & (key[:, None] <= hi)
    return cover.any(axis=1), cover.argmax(axis=1)


# ----------------------------------------------------------------------
# Search-tree round trip (Algorithm 2)
# ----------------------------------------------------------------------


def _start_search(A, st, idx: np.ndarray, tree_ids: np.ndarray, key) -> None:
    if idx.size and (tree_ids < 0).any():
        raise EngineError("packet entered a node with no search tree")
    root = A["S_ROOT"][tree_ids]
    st["s_slot"][idx] = root
    st["s_root"][idx] = root
    st["s_key"][idx] = key
    st["call"][idx] = 0.0


def _search_desc(A, st, m: np.ndarray, asc_phase: int) -> None:
    """One descent move per packet; leaves switch to the ascent phase.

    Sibling ranges are disjoint and ascending, so the only child that
    can cover the key is the last one at or below it in the
    ``(parent slot, lo)``-sorted child column."""
    if not m.size:
        return
    slot = st["s_slot"][m]
    key = st["s_key"][m]
    last = np.searchsorted(A["S_CH_KEY"], slot * A["S_SPAN"][0] + key, "right") - 1
    pos = np.maximum(last, 0)
    has = (last >= 0) & (A["S_CH_PARENT"][pos] == slot) & (key <= A["S_CH_HI"][pos])
    down = m[has]
    if down.size:
        new_slot = A["S_CH_SLOT"][pos[has]]
        st["call"][down] += A["S_DOWN"][new_slot]
        st["s_slot"][down] = new_slot
        st["cur"][down] = A["S_NODE"][new_slot]
    deepest = m[~has]
    if deepest.size:
        dslot = slot[~has]
        match = A["S_K_KEY"][dslot] == st["s_key"][deepest][:, None]
        st["s_found"][deepest] = match.any(axis=1)
        st["s_data"][deepest] = A["S_K_DATA"][dslot, match.argmax(axis=1)]
        st["phase"][deepest] = asc_phase


def _search_asc(A, st, m: np.ndarray) -> np.ndarray:
    """One ascent move per packet; returns packets back at the root."""
    if not m.size:
        return m
    at_root = st["s_slot"][m] == st["s_root"][m]
    climb = m[~at_root]
    if climb.size:
        slot = st["s_slot"][climb]
        parent = A["S_PARENT"][slot]
        st["call"][climb] += A["S_UP"][slot]
        st["s_slot"][climb] = parent
        st["cur"][climb] = A["S_NODE"][parent]
    return m[at_root]


# ----------------------------------------------------------------------
# DFS-interval tree routing (TreeRouter.next_hop)
# ----------------------------------------------------------------------


def _tree_move(A, st, m: np.ndarray) -> np.ndarray:
    """One tree hop per packet toward label ``trt``; returns arrivals.

    A move crosses the parent edge of the lower slot: the child it
    enters on the way down, the slot it leaves on the way up, so one
    ``T_W`` gather charges both directions.
    """
    if not m.size:
        return m
    slot = st["tr_slot"][m]
    t = st["trt"][m]
    tin = A["T_TIN"][slot]
    arrived = tin == t
    move = m[~arrived]
    if move.size:
        mslot = slot[~arrived]
        mt = t[~arrived]
        down = (tin[~arrived] < mt) & (mt <= A["T_TOUT"][mslot])
        new_slot = np.empty(move.size, dtype=np.int64)
        if down.any():
            dslot = mslot[down]
            has, first = _first_cover(
                A["T_CH_TIN"][dslot], A["T_CH_TOUT"][dslot], mt[down]
            )
            if not has.all():
                raise EngineError("tree label not covered by any child")
            new_slot[down] = A["T_CH_SLOT"][dslot, first]
        up = ~down
        if up.any():
            parent = A["T_PARENT"][mslot[up]]
            if (parent < 0).any():
                raise EngineError("tree route climbed past the root")
            new_slot[up] = parent
        st["call"][move] += A["T_W"][np.where(down, new_slot, mslot)]
        st["tr_slot"][move] = new_slot
        st["cur"][move] = A["T_NODE"][new_slot]
    return m[arrived]


# ----------------------------------------------------------------------
# Ring walk (Lemma 3.1)
# ----------------------------------------------------------------------


def _lns_walk(A, st, m: np.ndarray) -> np.ndarray:
    """One walk hop per packet; returns packets whose label matched at
    sweep start (the interpreted loop's entry check)."""
    if not m.size:
        return m
    arrived = A["LBL"][st["cur"][m]] == st["wlabel"][m]
    move = m[~arrived]
    if move.size:
        cur = st["cur"][move]
        has, first = _first_cover(
            A["R_LO"][cur], A["R_HI"][cur], st["wlabel"][move]
        )
        if not has.all():
            raise EngineError("no ring entry covers the walk label")
        at = cur * A["R_NH"].shape[1] + first  # the chosen entries, flat
        if (A["R_X"].take(at) == cur).any():
            raise EngineError("ring walk stalled (epsilon too large?)")
        st["call"][move] += A["R_W"].take(at)
        st["cur"][move] = A["R_NH"].take(at)
    return m[arrived]


# ----------------------------------------------------------------------
# Per-kind machines
# ----------------------------------------------------------------------


def _base_state(T: CompiledTables, src: np.ndarray, phase: int):
    b = src.size
    return {
        "cur": src.copy(),
        "phase": np.full(b, phase, dtype=np.int64),
        "legs": np.zeros((b, 4), dtype=np.float64),
        "call": np.zeros(b, dtype=np.float64),
        "res_target": np.full(b, -1, dtype=np.int64),
        "res_cost": np.zeros(b, dtype=np.float64),
    }


def _init_shortest_path(T, src, tgt):
    st = _base_state(T, src, PH_SP)
    st["tgt"] = tgt.copy()
    return st


def _step_shortest_path(T, A, st, ph):
    m = np.nonzero(ph == PH_SP)[0]
    if not m.size:
        return
    arrived = st["cur"][m] == st["tgt"][m]
    done = m[arrived]
    st["res_cost"][done] = st["call"][done]
    st["res_target"][done] = st["tgt"][done]
    st["phase"][done] = PH_DONE
    move = m[~arrived]
    if move.size:
        cur = st["cur"][move]
        nxt = A["NH"][cur, st["tgt"][move]]
        st["call"][move] += _edge_w(A, T.n, cur, nxt)
        st["cur"][move] = nxt


def _init_cowen(T, src, tgt):
    st = _base_state(T, src, PH_COWEN)
    st["tgt"] = tgt.copy()
    st["home"] = T.arrays["HOME"][tgt]
    st["via"] = np.zeros(src.size, dtype=bool)
    return st


def _step_cowen(T, A, st, ph):
    n = T.n
    m = np.nonzero(ph == PH_COWEN)[0]
    if not m.size:
        return
    arrived = st["cur"][m] == st["tgt"][m]
    done = m[arrived]
    st["res_cost"][done] = _fold_legs(st["legs"][done], 3)
    st["res_target"][done] = st["tgt"][done]
    st["phase"][done] = PH_DONE
    move = m[~arrived]
    if not move.size:
        return
    cur = st["cur"][move]
    tgt = st["tgt"][move]
    home = st["home"][move]
    member, _ = _lookup_sorted(A["CL_KEY"], cur * n + tgt)
    direct = member | (cur == home) | A["IS_LM"][tgt]
    d = move[direct]
    if d.size:
        nxt = A["NH"][cur[direct], tgt[direct]]
        w = _edge_w(A, n, cur[direct], nxt)
        col = np.where(st["via"][d], 2, 0)
        st["legs"][d, col] += w
        st["cur"][d] = nxt
    i = move[~direct]
    if i.size:
        nxt = A["NH"][cur[~direct], home[~direct]]
        w = _edge_w(A, n, cur[~direct], nxt)
        st["legs"][i, 1] += w
        st["via"][i] |= nxt == home[~direct]
        st["cur"][i] = nxt


def _init_labeled_nonsf(T, src, tgt):
    st = _base_state(T, src, PH_WALK)
    st["wlabel"] = T.arrays["LBL"][tgt]
    return st


def _step_labeled_nonsf(T, A, st, ph):
    done = _lns_walk(A, st, np.nonzero(ph == PH_WALK)[0])
    if done.size:
        # cost is folded once over the whole path (the interpreted loop
        # computes it after the fact); legs is {"walk": cost}.
        st["legs"][done, 0] = st["call"][done]
        st["res_cost"][done] = st["call"][done]
        st["res_target"][done] = st["cur"][done]
        st["phase"][done] = PH_DONE


def _init_nameind_simple(T, src, tgt):
    st = _base_state(T, src, PH_SDESC)
    b = src.size
    st["skey"] = T.arrays["NAMEOF"][tgt]
    st["wlabel"] = np.zeros(b, dtype=np.int64)
    st["role"] = np.zeros(b, dtype=np.int64)
    st["lvl"] = np.zeros(b, dtype=np.int64)
    st["s_slot"] = np.zeros(b, dtype=np.int64)
    st["s_root"] = np.zeros(b, dtype=np.int64)
    st["s_key"] = np.zeros(b, dtype=np.int64)
    st["s_found"] = np.zeros(b, dtype=bool)
    st["s_data"] = np.zeros(b, dtype=np.int64)
    _start_search(
        T.arrays, st, np.arange(b), T.arrays["NS_TREE"][0, src], st["skey"]
    )
    return st


def _ns_deliver(T, A, st, idx: np.ndarray) -> None:
    """Final-walk arrival: misdelivery check, then finish."""
    st["legs"][idx, 2] += st["call"][idx]
    target = st["cur"][idx]
    if (A["NAMEOF"][target] != st["skey"][idx]).any():
        raise EngineError("misdelivery: delivered node has the wrong name")
    st["res_target"][idx] = target
    st["res_cost"][idx] = _fold_legs(st["legs"][idx], 3)
    st["phase"][idx] = PH_DONE


def _step_nameind_simple(T, A, st, ph):
    top = int(T.scalars["top_level"])
    # Ring walk (zoom or final leg).
    done = _lns_walk(A, st, np.nonzero(ph == PH_WALK)[0])
    if done.size:
        zoom = done[st["role"][done] == ROLE_ZOOM]
        if zoom.size:
            st["legs"][zoom, 0] += st["call"][zoom]
            st["lvl"][zoom] += 1
            _start_search(
                A, st, zoom,
                A["NS_TREE"][st["lvl"][zoom], st["cur"][zoom]],
                st["skey"][zoom],
            )
            st["phase"][zoom] = PH_SDESC
        final = done[st["role"][done] == ROLE_FINAL]
        if final.size:
            _ns_deliver(T, A, st, final)
    # Search round trip.
    _search_desc(A, st, np.nonzero(ph == PH_SDESC)[0], PH_SASC)
    done = _search_asc(A, st, np.nonzero(ph == PH_SASC)[0])
    if done.size:
        st["legs"][done, 1] += st["call"][done]
        found = done[st["s_found"][done]]
        if found.size:
            st["role"][found] = ROLE_FINAL
            st["wlabel"][found] = st["s_data"][found]
            st["call"][found] = 0.0
            st["phase"][found] = PH_WALK
        miss = done[~st["s_found"][done]]
        if miss.size:
            if (st["lvl"][miss] >= top).any():
                raise EngineError("name not found at the top level")
            parent = A["PAR"][st["lvl"][miss] + 1, st["cur"][miss]]
            if (parent < 0).any():
                raise EngineError("zoom outside the net hierarchy domain")
            climb = parent != st["cur"][miss]
            z = miss[climb]
            if z.size:
                st["role"][z] = ROLE_ZOOM
                st["wlabel"][z] = A["LBL"][parent[climb]]
                st["call"][z] = 0.0
                st["phase"][z] = PH_WALK
            stay = miss[~climb]
            if stay.size:
                st["lvl"][stay] += 1
                _start_search(
                    A, st, stay,
                    A["NS_TREE"][st["lvl"][stay], st["cur"][stay]],
                    st["skey"][stay],
                )
                st["phase"][stay] = PH_SDESC


# ---------------------- Algorithm 5 sub-machine -----------------------


def _lsf_start_center(T, A, st, idx: np.ndarray) -> None:
    """Enter the Voronoi phase at packing level ``vj``."""
    if not idx.size:
        return
    c = A["VC"][st["vj"][idx], st["cur"][idx]]
    st["vc"][idx] = c
    tid = A["TR_ID"][st["vj"][idx], c]
    if (tid < 0).any():
        raise EngineError("Voronoi center has no tree router")
    ok, pos = _lookup_sorted(A["T_SLOT_KEY"], tid * T.n + st["cur"][idx])
    if not ok.all():
        raise EngineError("packet is outside its Voronoi tree")
    st["tr_slot"][idx] = A["T_SLOT_VAL"][pos]
    st["trt"][idx] = 0  # the center is the DFS root: label 0
    st["call"][idx] = 0.0
    st["phase"][idx] = PH_LCENTER


def _lsf_phases(T, A, st, ph, legs) -> None:
    """Advance every packet inside an Algorithm 5 call by one transition.

    ``legs`` is the 4-column (walk, to_center, search, final) array the
    call accumulates into; callers dispatch on ``PH_LRET`` afterwards.
    """
    log_n = int(T.scalars["log_n"])
    eps = T.scalars["eps"]
    slack = T.scalars["slack"]
    # Phase 1: greedy ring walk.
    m = np.nonzero(ph == PH_LWALK)[0]
    if m.size:
        arrived = A["LBL"][st["cur"][m]] == st["wlabel"][m]
        st["phase"][m[arrived]] = PH_LRET
        move = m[~arrived]
        if move.size:
            cur = st["cur"][move]
            has, first = _first_cover(
                A["R_LO"][cur], A["R_HI"][cur], st["wlabel"][move]
            )
            at = cur * A["R_NH"].shape[1] + first  # the chosen entries, flat
            lvl = A["R_LVL"].take(at)
            x = A["R_X"].take(at)
            dist = A["R_D"].take(at)
            is_dest = A["R_LO"].take(at) == A["R_HI"].take(at)
            threshold = np.ldexp(1.0, lvl - 1) / eps - np.ldexp(1.0, lvl)
            advance = (
                has
                & (x != cur)
                & (
                    is_dest
                    | (
                        (lvl <= st["prev_lvl"][move])
                        & (dist >= threshold - slack)
                    )
                )
            )
            adv = move[advance]
            if adv.size:
                st[legs][adv, 0] += A["R_W"].take(at[advance])
                st["cur"][adv] = A["R_NH"].take(at[advance])
                st["prev_lvl"][adv] = lvl[advance]
            stop = move[~advance]
            if stop.size:
                # Phase 2 entry: the re-scan the interpreter performs
                # sees unchanged state, so this sweep's scan stands in
                # for it; no-hit packets escalate to the global level.
                vj = np.full(stop.size, log_n, dtype=np.int64)
                hashit = has[~advance]
                h = stop[hashit]
                if h.size:
                    power = np.ldexp(1.0, lvl[~advance][hashit])
                    ru = A["RU"][st["cur"][h]]
                    cond = (ru[:, : log_n + 1] <= power[:, None] + slack) & (
                        power[:, None] < ru[:, 1 : log_n + 2]
                    )
                    anyc = cond.any(axis=1)
                    vj[hashit] = np.where(
                        anyc, cond.argmax(axis=1), log_n
                    )
                st["vj"][stop] = vj
                _lsf_start_center(T, A, st, stop)
    # Tree-route to the center.
    done = _tree_move(A, st, np.nonzero(ph == PH_LCENTER)[0])
    if done.size:
        st[legs][done, 1] += st["call"][done]
        sid = A["SR_ID"][st["vj"][done], st["vc"][done]]
        # Search tree II is keyed by the *global label* being routed to.
        _start_search(A, st, done, sid, st["wlabel"][done])
        st["phase"][done] = PH_LSDESC
    # Search tree II round trip.
    _search_desc(A, st, np.nonzero(ph == PH_LSDESC)[0], PH_LSASC)
    done = _search_asc(A, st, np.nonzero(ph == PH_LSASC)[0])
    if done.size:
        st[legs][done, 2] += st["call"][done]  # charged on hit and miss
        found = done[st["s_found"][done]]
        if found.size:
            tid = A["TR_ID"][st["vj"][found], st["vc"][found]]
            st["tr_slot"][found] = A["T_ROOT"][tid]
            st["trt"][found] = st["s_data"][found]
            st["call"][found] = 0.0
            st["phase"][found] = PH_LFINAL
        miss = done[~st["s_found"][done]]
        if miss.size:
            st["vj"][miss] += 1
            if (st["vj"][miss] > log_n).any():
                raise EngineError("label not found even at the global level")
            _lsf_start_center(T, A, st, miss)
    # Tree-route center -> destination.
    done = _tree_move(A, st, np.nonzero(ph == PH_LFINAL)[0])
    if done.size:
        st[legs][done, 3] += st["call"][done]
        st["phase"][done] = PH_LRET


def _lsf_registers(st, b: int) -> None:
    st["wlabel"] = np.zeros(b, dtype=np.int64)
    st["prev_lvl"] = np.full(b, np.inf, dtype=np.float64)
    st["vj"] = np.zeros(b, dtype=np.int64)
    st["vc"] = np.zeros(b, dtype=np.int64)
    st["tr_slot"] = np.zeros(b, dtype=np.int64)
    st["trt"] = np.zeros(b, dtype=np.int64)
    st["s_slot"] = np.zeros(b, dtype=np.int64)
    st["s_root"] = np.zeros(b, dtype=np.int64)
    st["s_key"] = np.zeros(b, dtype=np.int64)
    st["s_found"] = np.zeros(b, dtype=bool)
    st["s_data"] = np.zeros(b, dtype=np.int64)
    st["skey"] = np.zeros(b, dtype=np.int64)


def _init_labeled_sf(T, src, tgt):
    st = _base_state(T, src, PH_LWALK)
    _lsf_registers(st, src.size)
    st["wlabel"] = T.arrays["LBL"][tgt]
    return st


def _step_labeled_sf(T, A, st, ph):
    _lsf_phases(T, A, st, ph, "legs")
    # Standalone call: return == deliver.
    done = np.nonzero(ph == PH_LRET)[0]
    if done.size:
        st["res_target"][done] = st["cur"][done]
        st["res_cost"][done] = _fold_legs(st["legs"][done], 4)
        st["phase"][done] = PH_DONE


# The search registers (s_slot/s_root/s_key/...) are shared between the
# outer name searches and the inner Algorithm 5 searches: a packet is
# never inside both at once (an outer search completes before any inner
# call starts and vice versa).  ``s_key`` is set at search start — to
# the destination *name* for outer searches, to the walk *label* for
# search tree II — so the two key spaces never mix.


def _init_nameind_sf(T, src, tgt):
    st = _base_state(T, src, PH_NDECIDE)
    b = src.size
    _lsf_registers(st, b)
    st["skey"] = T.arrays["NAMEOF"][tgt]
    st["ilegs"] = np.zeros((b, 4), dtype=np.float64)
    st["lvl"] = np.zeros(b, dtype=np.int64)
    st["cont"] = np.zeros(b, dtype=np.int64)
    st["sctx"] = np.zeros(b, dtype=np.int64)
    st["saved_u"] = np.zeros(b, dtype=np.int64)
    st["hlj"] = np.zeros(b, dtype=np.int64)
    st["hlc"] = np.zeros(b, dtype=np.int64)
    st["fdata"] = np.zeros(b, dtype=np.int64)
    st["ffound"] = np.zeros(b, dtype=bool)
    return st


def _lsf_call(st, idx: np.ndarray, wlabel: np.ndarray, cont: int) -> None:
    """Begin an inner Algorithm 5 route (fresh legs dict semantics)."""
    st["wlabel"][idx] = wlabel
    st["cont"][idx] = cont
    st["prev_lvl"][idx] = np.inf
    st["ilegs"][idx] = 0.0
    st["phase"][idx] = PH_LWALK


def _nsf_climb(T, A, st, idx: np.ndarray) -> None:
    top = int(T.scalars["top_level"])
    if (st["lvl"][idx] >= top).any():
        raise EngineError("name not found at the top level")
    parent = A["PAR"][st["lvl"][idx] + 1, st["cur"][idx]]
    if (parent < 0).any():
        raise EngineError("zoom outside the net hierarchy domain")
    climb = parent != st["cur"][idx]
    z = idx[climb]
    if z.size:
        _lsf_call(st, z, A["LBL"][parent[climb]], C_ZOOM)
    stay = idx[~climb]
    if stay.size:
        st["lvl"][stay] += 1
        st["phase"][stay] = PH_NDECIDE


def _step_nameind_sf(T, A, st, ph):
    # Algorithm 4 entry: own tree or H-link detour.
    m = np.nonzero(ph == PH_NDECIDE)[0]
    if m.size:
        own = A["NSF_OWN"][st["lvl"][m], st["cur"][m]]
        has_own = own >= 0
        o = m[has_own]
        if o.size:
            st["sctx"][o] = 0
            _start_search(A, st, o, own[has_own], st["skey"][o])
            st["phase"][o] = PH_NSDESC
        h = m[~has_own]
        if h.size:
            hlj = A["NSF_HLJ"][st["lvl"][h], st["cur"][h]]
            hlc = A["NSF_HLC"][st["lvl"][h], st["cur"][h]]
            if (hlj < 0).any():
                raise EngineError("net point has neither tree nor H-link")
            st["hlj"][h] = hlj
            st["hlc"][h] = hlc
            st["saved_u"][h] = st["cur"][h]
            st["sctx"][h] = 1
            _lsf_call(st, h, A["LBL"][hlc], C_HOUT)
    # Outer (name) search round trip.
    _search_desc(A, st, np.nonzero(ph == PH_NSDESC)[0], PH_NSASC)
    done = _search_asc(A, st, np.nonzero(ph == PH_NSASC)[0])
    if done.size:
        st["legs"][done, 1] += st["call"][done]
        ctx0 = done[st["sctx"][done] == 0]
        if ctx0.size:
            found = ctx0[st["s_found"][ctx0]]
            if found.size:
                _lsf_call(st, found, st["s_data"][found], C_FINAL)
            miss = ctx0[~st["s_found"][ctx0]]
            if miss.size:
                _nsf_climb(T, A, st, miss)
        ctx1 = done[st["sctx"][done] == 1]
        if ctx1.size:
            # Detour back to u before acting on the packed-tree verdict.
            st["ffound"][ctx1] = st["s_found"][ctx1]
            st["fdata"][ctx1] = st["s_data"][ctx1]
            _lsf_call(st, ctx1, A["LBL"][st["saved_u"][ctx1]], C_HBACK)
    # Inner Algorithm 5 machine.
    _lsf_phases(T, A, st, ph, "ilegs")
    ret = np.nonzero(ph == PH_LRET)[0]
    if ret.size:
        inner = _fold_legs(st["ilegs"][ret], 4)
        cont = st["cont"][ret]
        hout = ret[cont == C_HOUT]
        if hout.size:
            st["legs"][hout, 1] += inner[cont == C_HOUT]
            _start_search(
                A, st, hout,
                A["NSF_PACKED"][st["hlj"][hout], st["hlc"][hout]],
                st["skey"][hout],
            )
            st["phase"][hout] = PH_NSDESC
        hback = ret[cont == C_HBACK]
        if hback.size:
            st["legs"][hback, 1] += inner[cont == C_HBACK]
            found = hback[st["ffound"][hback]]
            if found.size:
                _lsf_call(st, found, st["fdata"][found], C_FINAL)
            miss = hback[~st["ffound"][hback]]
            if miss.size:
                _nsf_climb(T, A, st, miss)
        zoom = ret[cont == C_ZOOM]
        if zoom.size:
            st["legs"][zoom, 0] += inner[cont == C_ZOOM]
            st["lvl"][zoom] += 1
            st["phase"][zoom] = PH_NDECIDE
        final = ret[cont == C_FINAL]
        if final.size:
            st["legs"][final, 2] += inner[cont == C_FINAL]
            target = st["cur"][final]
            if (A["NAMEOF"][target] != st["skey"][final]).any():
                raise EngineError(
                    "misdelivery: delivered node has the wrong name"
                )
            st["res_target"][final] = target
            st["res_cost"][final] = _fold_legs(st["legs"][final], 3)
            st["phase"][final] = PH_DONE


# --------------------------- landmark scheme --------------------------


def _init_landmark(T, src, tgt):
    st = _base_state(T, src, PH_MITER)
    b = src.size
    A = T.arrays
    st["skey"] = A["NAMEOF"][tgt]
    st["tgt"] = np.full(b, -1, dtype=np.int64)
    st["home"] = np.full(b, -1, dtype=np.int64)
    st["shortcut"] = np.ones(b, dtype=bool)
    st["zerohop"] = np.zeros(b, dtype=bool)
    depth = int(T.scalars["tree_depth"]) + 1
    st["dbuf"] = np.zeros((b, depth), dtype=np.int64)
    st["dpos"] = np.zeros(b, dtype=np.int64)
    st["vhit"] = np.zeros(b, dtype=bool)
    st["vpos"] = np.zeros(b, dtype=np.int64)
    _vicinity_look(T, st, np.arange(b))
    zero = np.nonzero(A["NAMEOF"][src] == st["skey"])[0]
    if zero.size:
        # Self-delivery: the interpreter returns before legs exist.
        st["zerohop"][zero] = True
        st["res_target"][zero] = src[zero]
        st["res_cost"][zero] = 0.0
        st["phase"][zero] = PH_DONE
    return st


def _vicinity_look(T, st, idx: np.ndarray) -> None:
    """Look the name of packets ``idx`` up in their current node's table.

    A packet at node ``u`` searches only u's own slice
    ``VIC_KEY[VIC_PTR[u]:VIC_PTR[u + 1]]``.  It is a lower-bound binary
    search run in lockstep, one bit of the offset per step from the
    highest: a slice is shorter than ``2**vic_steps`` (the bit length
    of the largest one), and a probe past the slice's end counts as
    "not below the key", so the slice's entries alone decide.

    The result waits in ``vhit``/``vpos`` for the packet's next sweep,
    which reads it at the same node: a packet is looked up once per
    arrival, and the lookup after a vicinity hop is both that hop's
    post-hop check and the next sweep's hit check.
    """
    if not idx.size:
        return
    A = T.arrays
    keys = A["VIC_KEY"]
    cur = st["cur"][idx]
    key = cur * T.n + st["skey"][idx]
    last = A["VIC_PTR"][cur] - 1  # the last entry known to lie below
    hi = A["VIC_PTR"][cur + 1]
    for bit in range(int(T.scalars["vic_steps"]) - 1, -1, -1):
        probe = last + (1 << bit)
        below = (probe < hi) & (keys.take(probe, mode="clip") < key)
        last = np.where(below, probe, last)
    pos = last + 1
    st["vhit"][idx] = (pos < hi) & (keys.take(pos, mode="clip") == key)
    st["vpos"][idx] = pos


def _lm_climb(A, st, idx: np.ndarray) -> None:
    """Enter ``PH_MDESC``: write every packet's source-routed suffix.

    All packets climb from their target toward their home in home's
    tree together, one ``PRED`` gather per tree level, so ``dbuf`` holds
    each chain far end first and ``dpos`` points at its last entry (the
    home's child).  Spent from there, the hops are
    ``_tree_path(home, target)[1:]`` in order.
    """
    home = st["home"][idx]
    base = A["LM_INDEX"][home] * A["PRED"].shape[1]  # home's row, flat
    v = st["tgt"][idx]
    depth = st["dbuf"].shape[1]
    level = 0
    while idx.size:
        if level >= depth:
            raise EngineError("descent chain deeper than the landmark tree")
        st["dbuf"][idx, level] = v
        st["dpos"][idx] = level
        v = A["PRED"].take(base + v)
        keep = v != home
        idx, v, base, home = idx[keep], v[keep], base[keep], home[keep]
        level += 1


def _lm_done(st, idx: np.ndarray) -> None:
    if not idx.size:
        return
    st["res_target"][idx] = st["tgt"][idx]
    st["res_cost"][idx] = _fold_legs(st["legs"][idx], 4)
    st["phase"][idx] = PH_DONE


def _step_landmark(T, A, st, ph):
    n = T.n
    m = np.nonzero(ph == PH_MITER)[0]
    if m.size:
        # Packets that move this sweep, looked up at their new node below.
        rest = walk_dir = walk_home = m[:0]
        hit = st["vhit"][m] & st["shortcut"][m]
        # Phase V: vicinity shortcut.
        a = m[hit]
        if a.size:
            e = st["vpos"][a]
            st["tgt"][a] = A["VIC_TGT"][e]
            st["home"][a] = A["VIC_HOME"][e]
            arrived = st["cur"][a] == st["tgt"][a]
            _lm_done(st, a[arrived])
            move = a[~arrived]
            if move.size:
                chosen = e[~arrived]
                hop = A["VIC_HOP"][chosen]
                st["legs"][move, 0] += A["VIC_W"][chosen]
                st["cur"][move] = hop
                arrived2 = hop == st["tgt"][move]
                _lm_done(st, move[arrived2])
                rest = move[~arrived2]
        # Phases A/B: tree walks.
        b = m[~hit]
        if b.size:
            unresolved = st["tgt"][b] < 0
            u = b[unresolved]
            if u.size:
                at_dir = st["cur"][u] == A["DIR_LM"][st["skey"][u]]
                d = u[at_dir]
                if d.size:
                    # Directory resolution is a control transition.
                    st["tgt"][d] = A["DIR_NODE"][st["skey"][d]]
                    st["home"][d] = A["DIR_HOME"][st["skey"][d]]
                walk_dir = u[~at_dir]
                if walk_dir.size:
                    at = A["DIR_ROW"][st["skey"][walk_dir]] * n + st["cur"][walk_dir]
                    st["legs"][walk_dir, 1] += A["PRED_W"].take(at)
                    st["cur"][walk_dir] = A["PRED"].take(at)
            r = b[~unresolved]
            if r.size:
                arrived = st["cur"][r] == st["tgt"][r]
                _lm_done(st, r[arrived])
                rr = r[~arrived]
                if rr.size:
                    at_home = st["cur"][rr] == st["home"][rr]
                    walk_home = rr[~at_home]
                    if walk_home.size:
                        at = (
                            A["LM_INDEX"][st["home"][walk_home]] * n
                            + st["cur"][walk_home]
                        )
                        st["legs"][walk_home, 2] += A["PRED_W"].take(at)
                        st["cur"][walk_home] = A["PRED"].take(at)
                    descend = rr[at_home]
                    if descend.size:
                        # Source-routed suffix: written once per packet
                        # (bounded by the landmark-tree depth), spent one
                        # hop per sweep like every other phase.
                        _lm_climb(A, st, descend)
                        st["phase"][descend] = PH_MDESC
        # Only packets that still take shortcuts need a lookup.
        moved = np.concatenate((rest, walk_dir, walk_home))
        _vicinity_look(T, st, moved[st["shortcut"][moved]])
        # A post-hop node whose vicinity lacks the name disables
        # shortcuts for the rest of the route.
        st["shortcut"][rest[~st["vhit"][rest]]] = False
    m = np.nonzero(ph == PH_MDESC)[0]
    if m.size:
        # cur is nxt's parent in home's tree: the edge is nxt's own.
        nxt = st["dbuf"][m, st["dpos"][m]]
        st["legs"][m, 3] += A["PRED_W"].take(A["LM_INDEX"][st["home"][m]] * n + nxt)
        st["cur"][m] = nxt
        st["dpos"][m] -= 1
        _lm_done(st, m[st["dpos"][m] < 0])


_MACHINES = {
    "shortest_path": (_init_shortest_path, _step_shortest_path),
    "cowen": (_init_cowen, _step_cowen),
    "labeled_nonsf": (_init_labeled_nonsf, _step_labeled_nonsf),
    "nameind_simple": (_init_nameind_simple, _step_nameind_simple),
    "labeled_sf": (_init_labeled_sf, _step_labeled_sf),
    "nameind_sf": (_init_nameind_sf, _step_nameind_sf),
    "landmark": (_init_landmark, _step_landmark),
}


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------


class BatchRouter:
    """Route batches of (source, target) node pairs over compiled tables.

    ``metric`` is only needed by :meth:`route` / :meth:`route_batch` to
    fill ``RouteResult.optimal``; the array path never touches it.
    """

    def __init__(self, tables: CompiledTables, metric=None) -> None:
        if tables.kind not in _MACHINES:
            raise EngineError(f"no batch machine for kind {tables.kind!r}")
        self.tables = tables
        self.metric = metric
        self._init, self._step = _MACHINES[tables.kind]

    def route_arrays(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        record_paths: bool = False,
    ) -> Dict[str, object]:
        """Route pairs; outputs are in injection-index order.

        Returns a dict with ``target`` (delivered node), ``cost``,
        ``legs`` (float64 ``[B, len(leg_names)]``, or None for schemes
        whose results carry no legs), ``sweeps``, plus ``paths`` (list
        of node lists) when ``record_paths`` is set and ``zerohop``
        for the landmark kind.
        """
        T = self.tables
        src, tgt = _validate_pairs(T.n, sources, targets)
        A = T.arrays
        st = self._init(T, src, tgt)
        paths = [[int(s)] for s in src] if record_paths else None
        max_sweeps = int(T.scalars["max_sweeps"])
        sweeps = 0
        step = self._step
        phase = st["phase"]
        while True:
            live = phase != PH_DONE
            if not live.any():
                break
            if sweeps >= max_sweeps:
                raise EngineError(
                    f"{int(live.sum())} packets still live after "
                    f"{sweeps} sweeps"
                )
            before = st["cur"].copy() if record_paths else None
            step(T, A, st, phase.copy())
            sweeps += 1
            if record_paths:
                for i in np.nonzero(st["cur"] != before)[0]:
                    paths[i].append(int(st["cur"][i]))
        width = len(T.leg_names)
        out: Dict[str, object] = {
            "target": st["res_target"].copy(),
            "cost": st["res_cost"].copy(),
            "legs": st["legs"][:, :width].copy() if width else None,
            "sweeps": sweeps,
        }
        if "zerohop" in st:
            out["zerohop"] = st["zerohop"].copy()
        if record_paths:
            out["paths"] = paths
        return out

    def route_batch(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        record_paths: bool = True,
    ) -> List[RouteResult]:
        """Materialize one :class:`RouteResult` per pair (injection order)."""
        if self.metric is None:
            raise EngineError(
                "route_batch needs the metric (for RouteResult.optimal); "
                "construct BatchRouter(tables, metric=...)"
            )
        out = self.route_arrays(sources, targets, record_paths=record_paths)
        T = self.tables
        zerohop = out.get("zerohop")
        legs_cols: Optional[np.ndarray] = out["legs"]  # type: ignore
        results: List[RouteResult] = []
        delivered = out["target"]
        costs = out["cost"]
        for i, source in enumerate(sources):
            source = int(source)
            target = int(delivered[i])
            legs: Optional[Dict[str, float]] = None
            if legs_cols is not None and not (
                zerohop is not None and zerohop[i]
            ):
                legs = {
                    name: float(legs_cols[i, k])
                    for k, name in enumerate(T.leg_names)
                }
            results.append(
                RouteResult(
                    source=source,
                    target=target,
                    path=(
                        out["paths"][i]  # type: ignore[index]
                        if record_paths
                        else [source, target]
                        if source != target
                        else [source]
                    ),
                    cost=float(costs[i]),
                    optimal=self.metric.distance(source, target),
                    header_bits=T.header_bits,
                    legs=legs,
                )
            )
        return results

    def route(self, source: int, target: int) -> RouteResult:
        return self.route_batch([source], [target])[0]
