"""Search trees over balls (paper Def. 3.2 / Def. 4.2, Algorithms 1-2)."""

from repro.searchtree.tree import SearchForest, SearchOutcome, SearchTree

__all__ = ["SearchForest", "SearchOutcome", "SearchTree"]
