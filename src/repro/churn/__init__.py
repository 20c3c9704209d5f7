"""Routing-table maintenance under continuous churn.

The package ties the invalidation layer (``BuildContext.apply_edit``,
which drops every artifact of the edited graph) to a long-running
service scenario: a deterministic edit stream mutates the network while
packets keep flowing against stale tables, and each round's repair cost,
staleness-induced stretch, and delivery rate are measured.  Experiment
E17 and the ``repro churn`` CLI command are thin wrappers over
:class:`ChurnDriver`.
"""

from repro.churn.driver import (
    ChurnDriver,
    ChurnReport,
    ChurnRoundRecord,
    ChurnVerificationError,
)
from repro.churn.stream import DEFAULT_MIX, EditStream
from repro.core.edits import EditKind, GraphEdit, apply_edit_to_graph

__all__ = [
    "ChurnDriver",
    "ChurnReport",
    "ChurnRoundRecord",
    "ChurnVerificationError",
    "DEFAULT_MIX",
    "EditStream",
    "EditKind",
    "GraphEdit",
    "apply_edit_to_graph",
]
