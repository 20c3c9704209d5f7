"""Deterministic unreliable-channel model over a routed network.

:class:`ChaosNetwork` wraps a :class:`~repro.metric.graph_metric.GraphMetric`
— or a :class:`~repro.resilience.degraded.DegradedNetwork` overlay, for
the combined stale-tables-plus-lossy-links regime — with seeded per-link
fault processes:

* **Bernoulli drop** — each transmission is lost with probability
  ``loss`` (the transmission still occupies the link: a lossy link
  wastes serialization capacity);
* **latency jitter** — a uniform extra delay in ``[0, jitter]``;
* **reordering** — with probability ``reorder`` a transmission is
  additionally held for ``reorder_delay``, letting later packets
  overtake it;
* **duplication** — with probability ``duplication`` the link delivers
  a second, independently forwarded copy;
* **header corruption** — with probability ``corruption``, the
  transmission arrives with ``corruption_bits`` bit positions of its
  *encoded* header flipped (see :mod:`repro.runtime.headers`); whether
  the receiver notices depends on the codec's checksum.

Every transmission draws its faults from one SHA-512 digest of the key
text ``"seed|chaos-link|packet,flight,hop"`` (the text
:func:`~repro.core.seeding.derive_seed` would hash for that event; the
network hashes the ``"seed|chaos-link|"`` prefix once).  The first five
64-bit big-endian words are the drop, corruption, duplication, jitter
and reorder uniforms, in that fixed order; each uniform is a word's top
53 bits times ``2**-53``, the form ``random.random()`` returns.  The
three spare words seed a generator only when a crossing is corrupted,
to pick its flipped bit positions.  This is a counter-based draw
(Salmon et al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011):
the outcome of a transmission depends only on *which* transmission it
is, never on how many draws preceded it, so the simulator's event order
cannot perturb the fault sample, and sweeping a fault rate under a
fixed seed replays the same uniforms against different thresholds
(drops are monotone in the loss rate — a paired comparison the
benchmarks assert).
"""

from __future__ import annotations

import dataclasses
import random
import struct
from typing import NamedTuple, Tuple

from repro.core.seeding import key_hash
from repro.core.types import NodeId
from repro.metric.graph_metric import GraphMetric


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Fault-process rates and magnitudes of one unreliable channel."""

    #: Per-transmission Bernoulli drop probability.
    loss: float = 0.0
    #: Maximum uniform extra per-link delay (time units).
    jitter: float = 0.0
    #: Per-transmission duplication probability.
    duplication: float = 0.0
    #: Probability a transmission is held an extra ``reorder_delay``.
    reorder: float = 0.0
    #: Extra holding delay applied when the reorder fault fires.
    reorder_delay: float = 4.0
    #: Per-transmission header-corruption probability.
    corruption: float = 0.0
    #: Number of header bit positions flipped per corruption event.
    corruption_bits: int = 1
    #: Arrival lag of a duplicated copy behind the original.
    duplicate_lag: float = 0.5

    def __post_init__(self) -> None:
        for name in ("loss", "jitter", "duplication", "reorder", "corruption"):
            value = getattr(self, name)
            if name == "jitter":
                if value < 0:
                    raise ValueError("jitter must be non-negative")
            elif not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.reorder_delay < 0 or self.duplicate_lag < 0:
            raise ValueError("delays must be non-negative")
        if self.corruption_bits < 1:
            raise ValueError("corruption_bits must be >= 1")

    @property
    def faultless(self) -> bool:
        """True iff every fault process is off (the identity channel)."""
        return (
            self.loss == 0.0
            and self.jitter == 0.0
            and self.duplication == 0.0
            and self.reorder == 0.0
            and self.corruption == 0.0
        )


class LinkFaults(NamedTuple):
    """The faults one transmission drew (empty = clean forward)."""

    dropped: bool = False
    extra_delay: float = 0.0
    duplicated: bool = False
    #: MSB-first header bit positions flipped in flight (empty = none).
    corrupt_bits: Tuple[int, ...] = ()


_NO_FAULTS = LinkFaults()

#: The five uniforms' words at the head of a transmission's digest.
_WORDS = struct.Struct(">5Q").unpack_from
#: Scale of a word's top 53 bits (``word >> 11``) onto ``[0, 1)``.
_UNIT = 2.0**-53


class ChaosNetwork:
    """Seeded per-link fault processes over a metric or degraded overlay.

    Args:
        base: The network packets actually traverse — a
            :class:`GraphMetric`, or a ``DegradedNetwork`` (anything
            exposing ``distance(u, v)``; a ``.metric`` attribute, if
            present, names the underlying intact metric).
        config: Fault rates; defaults to the identity channel.
        seed: Master seed for the per-transmission fault draws.
    """

    def __init__(
        self,
        base,
        config: ChaosConfig = ChaosConfig(),
        seed: int = 0,
    ) -> None:
        if not hasattr(base, "distance"):
            raise TypeError(
                "base must expose distance(u, v) "
                "(GraphMetric or DegradedNetwork)"
            )
        self._base = base
        self._config = config
        self._seed = int(seed)
        self._link_key = key_hash(self._seed, "chaos-link", "sha512")
        self._ack_key = key_hash(self._seed, "chaos-ack", "sha512")

    @property
    def base(self):
        """The wrapped network (metric or degraded overlay)."""
        return self._base

    @property
    def metric(self) -> GraphMetric:
        """The underlying intact metric (through any overlay)."""
        return getattr(self._base, "metric", self._base)

    @property
    def config(self) -> ChaosConfig:
        return self._config

    @property
    def seed(self) -> int:
        return self._seed

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Propagation delay of link ``(u, v)`` on the wrapped network."""
        return self._base.distance(u, v)

    # -- fault draws ---------------------------------------------------

    def link_faults(
        self, packet: int, flight: int, hop: int, header_bits: int = 0
    ) -> LinkFaults:
        """Faults drawn for one transmission (stateless, order-free).

        The five uniforms are the first five words of the SHA-512
        digest of ``"seed|chaos-link|packet,flight,hop"``, in a fixed
        order (drop, corruption, duplication, jitter, reorder)
        regardless of which rates are zero, so the *same* uniforms back
        every point of a rate sweep under one seed.  A corrupted
        crossing picks its ``corruption_bits`` distinct header bit
        positions with a generator seeded from the digest's three spare
        words; no other crossing seeds one.
        """
        cfg = self._config
        if cfg.faultless:
            return _NO_FAULTS
        key = self._link_key.copy()
        key.update(b"%d,%d,%d" % (packet, flight, hop))
        digest = key.digest()
        drop, corrupt, duplicate, jitter, reorder = _WORDS(digest)
        dropped = (drop >> 11) * _UNIT < cfg.loss
        extra = (jitter >> 11) * _UNIT * cfg.jitter
        if (reorder >> 11) * _UNIT < cfg.reorder:
            extra += cfg.reorder_delay
        corrupt_bits: Tuple[int, ...] = ()
        if (
            (corrupt >> 11) * _UNIT < cfg.corruption
            and not dropped
            and header_bits > 0
        ):
            rng = random.Random(int.from_bytes(digest[40:], "big"))
            count = min(cfg.corruption_bits, header_bits)
            corrupt_bits = tuple(sorted(rng.sample(range(header_bits), count)))
        return LinkFaults(
            dropped,
            extra,
            not dropped and (duplicate >> 11) * _UNIT < cfg.duplication,
            corrupt_bits,
        )

    def ack_dropped(self, packet: int, ack_seq: int, links: int) -> bool:
        """Whether the ``ack_seq``-th ack of ``packet`` is lost.

        Acks traverse the reverse path as an un-queued control message;
        each of its ``links`` reverse hops is lost independently with
        the data-plane loss rate, so the ack is lost with probability
        ``1 - (1 - loss)**links``.  One uniform decides it: the first
        word of the SHA-512 digest of ``"seed|chaos-ack|packet,ack_seq"``,
        read like the link draws.
        """
        loss = self._config.loss
        if loss == 0.0 or links <= 0:
            return False
        key = self._ack_key.copy()
        key.update(b"%d,%d" % (packet, ack_seq))
        word = int.from_bytes(key.digest()[:8], "big")
        return (word >> 11) * _UNIT < 1.0 - (1.0 - loss) ** links

    def __repr__(self) -> str:
        return (
            f"ChaosNetwork(seed={self._seed}, loss={self._config.loss}, "
            f"jitter={self._config.jitter}, "
            f"corruption={self._config.corruption})"
        )
