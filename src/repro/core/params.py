"""Scheme parameters shared by all routing schemes.

The single tunable parameter in the paper is the accuracy constant
``epsilon``.  The paper's analysis requires ``epsilon < 3/4`` (Claim 4.6)
and its statements assume ``epsilon`` in ``(0, 1)``; we recommend values in
``(0, 1/2]`` where every constant in the proofs is comfortably valid.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class SchemeParameters:
    """Parameters controlling accuracy/space trade-offs of all schemes.

    Paper §2 requires a globally consistent tie-breaking rule for
    nearest-net-point selection ("e.g., the least node id"); every
    nearest choice in this repo takes the least id, so there is nothing
    to configure.

    Attributes:
        epsilon: The paper's ``ε``.  Smaller values mean better stretch
            (``9 + O(ε)`` name-independent, ``1 + O(ε)`` labeled) but larger
            ring radii ``2^i/ε`` and hence larger routing tables.
    """

    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )

    def search_tree_levels(self, radius: float) -> int:
        """Number of net levels ``⌊log(εr)⌋`` in a search tree of radius r."""
        scaled = self.epsilon * radius
        if scaled < 2.0:
            return 0
        return int(math.floor(math.log2(scaled)))
