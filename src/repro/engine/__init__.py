"""``repro.engine`` — compiled batch routing over flat numpy tables.

The schemes in :mod:`repro.schemes` are *front-end objects*: per-node
tables held in python dicts, walked one packet at a time by the
interpreted ``route()`` loops.  This subsystem is the compiled hot core
behind them (the hwtHls split — see ROADMAP item 2):

* :func:`compile_scheme` lowers a built scheme's tables into
  :class:`CompiledTables` — flat numpy arrays (padded ring matrices
  with their stored next hops, slot-packed search/Voronoi trees with
  their edge costs, CSR-packed vicinity entries, a weight column beside
  every compact next-hop column, and dense next-hop matrices with
  sorted edge-weight keys for the two baselines only); a stored hop
  that is not its owner's neighbour fails the compile with
  :class:`NonEdgeHop`;
* :class:`BatchRouter` advances *all* live packets one transition per
  sweep over those arrays (gather/argmax per sweep, no per-packet
  python on the hot path), bit-identical to the interpreted loops.
  It is the one compiled serving path; a failed compiled route raises
  :class:`EngineError`, a :class:`~repro.core.types.RouteFailure`.

Every compiled route is property-tested bit-identical (path, cost,
legs, header bits, delivered target) to ``route()`` and to RouteTrace
replay across every scheme and fixture — see ``tests/test_engine.py``.
"""

from repro.engine.batch import BatchRouter, EngineError
from repro.engine.compiler import (
    CompiledTables,
    EngineUnsupported,
    NonEdgeHop,
    compile_scheme,
)

__all__ = [
    "BatchRouter",
    "CompiledTables",
    "EngineError",
    "EngineUnsupported",
    "NonEdgeHop",
    "compile_scheme",
]
