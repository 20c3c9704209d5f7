"""The repository's seed-splitting convention.

Composed experiments draw from several random processes at once — demand
workloads (:func:`repro.runtime.simulator.uniform_demands`), failure
plans (:class:`repro.resilience.failure_plan.FailurePlan`), churn
streams, and the per-link fault processes of :mod:`repro.chaos`.  Seeding
them all with the same small integer silently *correlates* the streams
(the 7th demand draw and the 7th fault draw come from identical PRNG
states), which can manufacture or mask effects.

:func:`derive_seed` is the single convention: every consumer derives its
seed from one master seed plus a textual stream name (and optional
integer indices) through SHA-256.  Properties:

* **independence** — distinct ``(stream, indices)`` tuples yield
  unrelated 64-bit seeds, so composed experiments cannot correlate;
* **order-free determinism** — the seed of event ``(packet, flight,
  hop)`` depends only on those identifiers, never on how many draws
  happened before it, so a simulator may process events in any causal
  order (heap order, batched, resumed) and reproduce identical faults;
* **coupling where it helps** — the derived seed does not depend on
  fault *rates*, so sweeping a loss rate with a fixed master seed
  replays the same underlying uniform draws against different
  thresholds: delivery under a higher loss rate is a superset of the
  drops under a lower one (a paired, variance-free comparison the
  chaos benchmarks assert as a monotonicity invariant).

The convention is documented in DESIGN.md; new random processes should
use ``derive_seed(master, "<unique-stream-name>", ...)`` rather than
inventing seed arithmetic.  A process that draws one seed per event
(the per-transmission fault draws) holds :func:`seed_stream` instead,
which hashes the ``master|stream|`` prefix once and returns the same
seeds.
"""

from __future__ import annotations

import hashlib
from typing import Callable


def seed_stream(master: int, stream: str) -> Callable[..., int]:
    """``derive_seed(master, stream, *indices)`` as a function of the
    indices alone.

    The ``"master|stream|"`` prefix is hashed once; each call copies
    that SHA-256 state and hashes only the indices, so it returns
    exactly the seed :func:`derive_seed` would.
    """
    if not stream:
        raise ValueError("stream name must be non-empty")
    prefix = hashlib.sha256(f"{int(master)}|{stream}|".encode("ascii"))

    def seed(*indices: int) -> int:
        digest = prefix.copy()
        digest.update(",".join(str(int(i)) for i in indices).encode("ascii"))
        return int.from_bytes(digest.digest()[:8], "big")

    return seed


def derive_seed(master: int, stream: str, *indices: int) -> int:
    """Derive an independent 64-bit seed for one named random stream.

    Args:
        master: The experiment's single master seed.
        stream: A short name unique to the random process (e.g.
            ``"demands"``, ``"failures"``, ``"chaos-link"``).
        indices: Optional integer coordinates for per-event streams
            (packet index, flight id, hop, ...).

    Returns:
        An integer in ``[0, 2**64)`` suitable for ``random.Random``.
    """
    return seed_stream(master, stream)(*indices)
