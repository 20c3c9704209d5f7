"""The repository's seed-splitting convention.

Composed experiments draw from several random processes at once — demand
workloads (:func:`repro.runtime.simulator.uniform_demands`), failure
plans (:class:`repro.resilience.failure_plan.FailurePlan`), churn
streams, and the per-link fault processes of :mod:`repro.chaos`.  Seeding
them all with the same small integer silently *correlates* the streams
(the 7th demand draw and the 7th fault draw come from identical PRNG
states), which can manufacture or mask effects.

Every random draw is keyed by the text ``"master|stream|i,j,..."``: one
master seed, a textual stream name, and optional integer indices.
:func:`derive_seed` hashes that key with SHA-256 into the 64-bit seed of
one ``random.Random`` stream.  Properties:

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
inventing seed arithmetic.  A process that draws once per simulated
event (the channel's link and ack faults) seeds no generator at all: it
holds :func:`key_hash` of its stream, which absorbs the
``"master|stream|"`` prefix once, and reads its uniforms straight from
each event's digest (a counter-based draw; see
:mod:`repro.chaos.channel`).  The same three properties hold, because
the digest is a pure function of the same key text.
"""

from __future__ import annotations

import hashlib


def key_hash(master: int, stream: str, algorithm: str = "sha256"):
    """A ``hashlib`` object that has absorbed ``"master|stream|"``.

    Copy it and feed it an event's comma-joined indices to hash that
    event's whole key text; the prefix is hashed once per stream.
    """
    if not stream:
        raise ValueError("stream name must be non-empty")
    return hashlib.new(algorithm, f"{int(master)}|{stream}|".encode("ascii"))


def derive_seed(master: int, stream: str, *indices: int) -> int:
    """Derive an independent 64-bit seed for one named random stream.

    The seed is the first 8 bytes (big-endian) of the SHA-256 digest of
    ``"master|stream|i,j,..."``.

    Args:
        master: The experiment's single master seed.
        stream: A short name unique to the random process (e.g.
            ``"demands"``, ``"failures"``, ``"chaos"``).
        indices: Optional integer coordinates for per-event streams
            (node, round, ...).

    Returns:
        An integer in ``[0, 2**64)`` suitable for ``random.Random``.
    """
    digest = key_hash(master, stream)
    digest.update(",".join(str(int(i)) for i in indices).encode("ascii"))
    return int.from_bytes(digest.digest()[:8], "big")
