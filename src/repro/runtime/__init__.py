"""Packet-header serialization: bit-exact codecs for scheme headers."""

from repro.runtime.bitstream import BitReader, BitWriter, flip_bits
from repro.runtime.headers import (
    ChecksumCodec,
    FieldSpec,
    HeaderCodec,
    HeaderCorruptionError,
    cowen_landmark_codec,
    labeled_scalefree_codec,
    labeled_simple_codec,
    name_independent_codec,
    shortest_path_codec,
    with_checksum,
)
from repro.runtime.simulator import (
    Demand,
    DeliveredPacket,
    PacketOutcome,
    SimulationReport,
    TrafficSimulator,
    uniform_demands,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "ChecksumCodec",
    "Demand",
    "DeliveredPacket",
    "FieldSpec",
    "HeaderCodec",
    "HeaderCorruptionError",
    "PacketOutcome",
    "SimulationReport",
    "TrafficSimulator",
    "cowen_landmark_codec",
    "flip_bits",
    "labeled_scalefree_codec",
    "labeled_simple_codec",
    "name_independent_codec",
    "shortest_path_codec",
    "uniform_demands",
    "with_checksum",
]
