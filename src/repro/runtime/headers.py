"""Bit-exact packet-header codecs for each routing scheme.

A :class:`HeaderCodec` is an ordered list of fixed-width fields; encoding
a header produces a real bit string whose length *is* the header size,
so the ``header_bits()`` reported by a scheme equals the serialized size
of the worst-case header by construction.  The layout is fixed per
built scheme: ``RoutingScheme.header_codec()`` builds it once from the
scheme's ``_header_layout()`` and keeps it, and every scheme with a
codec reports its ``total_bits``.  The landmark scheme has a formula and
no codec.

The three shipped codecs mirror the paper's schemes:

* :func:`labeled_simple_codec` — the non-scale-free labeled scheme
  carries only the destination label: exactly ``⌈log n⌉`` bits,
  matching Lemma 3.1's ``O(log n)`` headers.  (No extra flag bits: the
  ring walk of Lemma 3.1 is stateless, so the label is the whole
  header.)
* :func:`labeled_scalefree_codec` — Algorithm 5 additionally carries the
  previous ring level, a phase tag, the packing level, and (during the
  Voronoi phase) up to two tree-local labels.  With the
  Fraigniaud–Gavoille-style tree labels this is the paper's
  ``O(log²n / log log n)`` header; with DFS-interval labels it is
  ``O(log n)``.
* :func:`name_independent_codec` — Algorithm 3 prepends the destination
  name and the current search level to the underlying labeled header.

Two baseline codecs round out the catalog so *every* scheme in the
repository has a concrete wire format: :func:`shortest_path_codec`
(the ``⌈log n⌉``-bit destination name of the full-table baseline) and
:func:`cowen_landmark_codec` (the ``(v, L(v))`` label plus a
via-landmark flag of the Cowen stretch-3 scheme).

For transport over unreliable channels (:mod:`repro.chaos`),
:func:`with_checksum` appends a CRC field covering the payload bits.
The generator polynomials have a nonzero constant term and at least two
terms, so **every single-bit flip is detected** (the syndrome of
``x^i`` mod ``g(x)`` is never zero); an arbitrary multi-bit corruption
escapes detection with probability ``2^-k`` for a ``k``-bit CRC.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.core.bitcount import bits_for_count, bits_for_id
from repro.core.types import ReproError
from repro.metric.graph_metric import GraphMetric
from repro.runtime.bitstream import BitReader, BitWriter

#: Name of the CRC field :func:`with_checksum` appends.
CHECKSUM_FIELD = "header_crc"

#: Supported CRC widths -> generator polynomial (x^k term implicit).
#: Both polynomials have the +1 term, so g(x) never divides x^i and
#: single-bit errors are always detected, at any message length.
_CRC_POLYS = {8: 0x07, 16: 0x1021}


class HeaderCorruptionError(ReproError):
    """A decoded header failed its checksum (detected corruption)."""


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """One fixed-width header field."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("field width must be non-negative")
        if not self.name:
            raise ValueError("field name must be non-empty")


class HeaderCodec:
    """Ordered fixed-width header layout with encode/decode."""

    def __init__(self, fields: Sequence[FieldSpec]) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names")
        self._fields = list(fields)
        self._total_bits = sum(f.width for f in self._fields)

    @property
    def fields(self) -> List[FieldSpec]:
        return list(self._fields)

    @property
    def total_bits(self) -> int:
        """Serialized size of every header under this codec."""
        return self._total_bits

    def encode(self, values: Dict[str, int]) -> Tuple[bytes, int]:
        """Serialize ``values`` (missing fields default to 0)."""
        writer = BitWriter()
        for field in self._fields:
            writer.write(int(values.get(field.name, 0)), field.width)
        return writer.getvalue(), writer.bit_length

    def decode(self, data: bytes, bit_length: int) -> Dict[str, int]:
        if bit_length != self.total_bits:
            raise ValueError(
                f"expected {self.total_bits} bits, got {bit_length}"
            )
        reader = BitReader(data, bit_length)
        return {f.name: reader.read(f.width) for f in self._fields}

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.width}" for f in self._fields)
        return f"HeaderCodec({inner}; {self.total_bits} bits)"


def crc_of_bits(data: bytes, bit_length: int, width: int) -> int:
    """CRC of the first ``bit_length`` MSB-first bits of ``data``.

    Plain non-reflected CRC, zero initial register: processing the
    message bit-serially against the generator in :data:`_CRC_POLYS`.
    """
    try:
        poly = _CRC_POLYS[width]
    except KeyError:
        supported = ", ".join(str(w) for w in sorted(_CRC_POLYS))
        raise ValueError(
            f"unsupported CRC width {width} (supported: {supported})"
        )
    mask = (1 << width) - 1
    register = 0
    for position in range(bit_length):
        bit = (data[position // 8] >> (7 - position % 8)) & 1
        feedback = ((register >> (width - 1)) & 1) ^ bit
        register = (register << 1) & mask
        if feedback:
            register ^= poly
    return register


class ChecksumCodec(HeaderCodec):
    """A header codec with a trailing CRC field over the payload bits.

    ``encode`` fills the CRC automatically; ``decode`` raises
    :class:`HeaderCorruptionError` on mismatch, and :meth:`verify` is
    the non-raising receiver-side check the chaos simulator uses to
    decide detected-and-dropped versus silently-misrouted.
    """

    def __init__(
        self, fields: Sequence[FieldSpec], checksum_bits: int = 8
    ) -> None:
        if checksum_bits not in _CRC_POLYS:
            supported = ", ".join(str(w) for w in sorted(_CRC_POLYS))
            raise ValueError(
                f"unsupported CRC width {checksum_bits} "
                f"(supported: {supported})"
            )
        if any(f.name == CHECKSUM_FIELD for f in fields):
            raise ValueError(f"payload already has a {CHECKSUM_FIELD!r} field")
        self._payload_fields = list(fields)
        self._checksum_bits = checksum_bits
        super().__init__(
            self._payload_fields + [FieldSpec(CHECKSUM_FIELD, checksum_bits)]
        )

    @property
    def payload_bits(self) -> int:
        return sum(f.width for f in self._payload_fields)

    @property
    def checksum_bits(self) -> int:
        return self._checksum_bits

    def encode(self, values: Dict[str, int]) -> Tuple[bytes, int]:
        writer = BitWriter()
        for field in self._payload_fields:
            writer.write(int(values.get(field.name, 0)), field.width)
        crc = crc_of_bits(
            writer.getvalue(), writer.bit_length, self._checksum_bits
        )
        writer.write(crc, self._checksum_bits)
        return writer.getvalue(), writer.bit_length

    def verify(self, data: bytes, bit_length: int) -> bool:
        """True iff the trailing CRC matches the payload bits."""
        if bit_length != self.total_bits:
            return False
        reader = BitReader(data, bit_length)
        for field in self._payload_fields:
            reader.read(field.width)
        stored = reader.read(self._checksum_bits)
        return stored == crc_of_bits(
            data, self.payload_bits, self._checksum_bits
        )

    def decode(self, data: bytes, bit_length: int) -> Dict[str, int]:
        values = super().decode(data, bit_length)
        if values[CHECKSUM_FIELD] != crc_of_bits(
            data, self.payload_bits, self._checksum_bits
        ):
            raise HeaderCorruptionError(
                "header checksum mismatch (corrupted in flight)"
            )
        return values


def with_checksum(codec: HeaderCodec, checksum_bits: int = 8) -> ChecksumCodec:
    """Wrap a scheme codec with a trailing CRC field.

    The checksum is a *transport* concern: scheme ``header_bits()``
    figures (and the paper's header-size claims) stay unchanged; only
    packets serialized for an unreliable channel pay the extra bits.
    """
    if isinstance(codec, ChecksumCodec):
        return codec
    return ChecksumCodec(codec.fields, checksum_bits)


def shortest_path_codec(metric: GraphMetric) -> HeaderCodec:
    """Header of the full-table baseline: the destination name."""
    return HeaderCodec(
        [
            FieldSpec("target_name", bits_for_id(metric.n)),
        ]
    )


def cowen_landmark_codec(metric: GraphMetric) -> HeaderCodec:
    """Header of the Cowen stretch-3 scheme: ``(v, L(v))`` + mode flag.

    ``target_label`` packs the destination and its home landmark
    (``v * n + L(v)``, exactly ``2⌈log n⌉`` bits); ``via_landmark`` is
    the 1-bit phase flag distinguishing direct-cluster forwarding from
    the landmark detour.
    """
    return HeaderCodec(
        [
            FieldSpec("target_label", 2 * bits_for_id(metric.n)),
            FieldSpec("via_landmark", 1),
        ]
    )


def labeled_simple_codec(metric: GraphMetric) -> HeaderCodec:
    """Header of the non-scale-free labeled scheme: just the label."""
    return HeaderCodec(
        [
            FieldSpec("target_label", bits_for_id(metric.n)),
        ]
    )


def labeled_scalefree_codec(
    metric: GraphMetric, tree_label_bits: int = 0
) -> HeaderCodec:
    """Header of Algorithm 5 (Theorem 1.2).

    Args:
        metric: The network (fixes the field widths).
        tree_label_bits: Width of one local tree-routing label; defaults
            to ``⌈log n⌉`` (the DFS-interval router).
    """
    label = bits_for_id(metric.n)
    if tree_label_bits <= 0:
        tree_label_bits = label
    return HeaderCodec(
        [
            FieldSpec("target_label", label),
            FieldSpec("prev_level", bits_for_count(metric.log_diameter + 1)),
            FieldSpec("phase", 2),
            FieldSpec("packing_level", bits_for_count(metric.log_n)),
            FieldSpec("tree_target", tree_label_bits),
            FieldSpec("tree_center", tree_label_bits),
        ]
    )


def name_independent_codec(
    metric: GraphMetric, underlying: HeaderCodec
) -> HeaderCodec:
    """Header of Algorithm 3: name + level + the labeled sub-header."""
    fields = [
        FieldSpec("target_name", bits_for_id(metric.n)),
        FieldSpec("search_level", bits_for_count(metric.log_diameter + 1)),
    ]
    for sub in underlying.fields:
        fields.append(FieldSpec(f"sub_{sub.name}", sub.width))
    return HeaderCodec(fields)
