"""Tests for bit streams and header codecs (repro.runtime)."""

import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edits import EditKind, GraphEdit
from repro.graphs.generators import grid_2d
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext
from repro.runtime.bitstream import BitReader, BitWriter, flip_bits
from repro.runtime.headers import (
    CHECKSUM_FIELD,
    ChecksumCodec,
    FieldSpec,
    HeaderCodec,
    HeaderCorruptionError,
    cowen_landmark_codec,
    crc_of_bits,
    labeled_scalefree_codec,
    labeled_simple_codec,
    name_independent_codec,
    shortest_path_codec,
    with_checksum,
)
from repro.schemes.cowen_landmark import CowenLandmarkScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.trees.heavy_path import HeavyPathRouter


class TestBitStream:
    def test_round_trip_simple(self):
        writer = BitWriter()
        writer.write(5, 3)
        writer.write(1, 1)
        writer.write(200, 8)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        assert reader.read(3) == 5
        assert reader.read(1) == 1
        assert reader.read(8) == 200
        assert reader.remaining == 0

    def test_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_read_past_end_rejected(self):
        writer = BitWriter()
        writer.write(1, 1)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        reader.read(1)
        with pytest.raises(ValueError):
            reader.read(1)

    def test_zero_width_field(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=0),
            ).map(lambda t: (t[0], t[1] % (1 << t[0]))),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, fields):
        writer = BitWriter()
        for width, value in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        for width, value in fields:
            assert reader.read(width) == value


class TestHeaderCodec:
    def test_total_bits(self):
        codec = HeaderCodec([FieldSpec("a", 3), FieldSpec("b", 5)])
        assert codec.total_bits == 8

    def test_encode_decode_round_trip(self):
        codec = HeaderCodec([FieldSpec("a", 4), FieldSpec("b", 9)])
        data, bits = codec.encode({"a": 7, "b": 300})
        assert bits == 13
        assert codec.decode(data, bits) == {"a": 7, "b": 300}

    def test_missing_fields_default_zero(self):
        codec = HeaderCodec([FieldSpec("a", 4)])
        data, bits = codec.encode({})
        assert codec.decode(data, bits)["a"] == 0

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            HeaderCodec([FieldSpec("a", 1), FieldSpec("a", 2)])

    def test_decode_wrong_length_rejected(self):
        codec = HeaderCodec([FieldSpec("a", 4)])
        data, bits = codec.encode({"a": 1})
        with pytest.raises(ValueError):
            codec.decode(data, bits + 1)

    def test_bad_field_specs_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("", 3)
        with pytest.raises(ValueError):
            FieldSpec("a", -1)


class TestSchemeCodecs:
    def test_simple_codec_is_one_label(self, grid_metric):
        codec = labeled_simple_codec(grid_metric)
        assert codec.total_bits == 6

    def test_scalefree_codec_fields(self, grid_metric):
        codec = labeled_scalefree_codec(grid_metric)
        names = [f.name for f in codec.fields]
        assert "target_label" in names
        assert "packing_level" in names
        assert "tree_target" in names

    def test_name_independent_codec_nests(self, grid_metric):
        inner = labeled_simple_codec(grid_metric)
        outer = name_independent_codec(grid_metric, inner)
        assert outer.total_bits > inner.total_bits
        assert any(f.name == "sub_target_label" for f in outer.fields)

    def test_header_bits_match_codec(self, grid_metric, params):
        """Every scheme's header_bits equals its codec's bit size."""
        for scheme in (
            NonScaleFreeLabeledScheme(grid_metric, params),
            ScaleFreeLabeledScheme(grid_metric, params),
        ):
            assert scheme.header_bits() == scheme.header_codec().total_bits

        labeled = ScaleFreeLabeledScheme(grid_metric, params)
        for scheme in (
            SimpleNameIndependentScheme(grid_metric, params),
            ScaleFreeNameIndependentScheme(
                grid_metric, params, underlying=labeled
            ),
        ):
            assert scheme.header_bits() == scheme.header_codec().total_bits

    def test_worst_case_header_encodable(self, grid_metric, params):
        """The widest legal field values round-trip for each scheme."""
        scheme = ScaleFreeLabeledScheme(grid_metric, params)
        codec = scheme.header_codec()
        values = {
            f.name: (1 << f.width) - 1 for f in codec.fields
        }
        data, bits = codec.encode(values)
        assert codec.decode(data, bits) == values

    def test_baseline_codecs_cover_all_schemes(self, grid_metric, params):
        """Every scheme exposes a codec sized like its header claim."""
        for scheme in (
            ShortestPathScheme(grid_metric, params),
            CowenLandmarkScheme(grid_metric, params),
        ):
            assert scheme.header_bits() == scheme.header_codec().total_bits

    def test_heavy_path_labels_widen_header(self, grid_metric, params):
        from repro.trees.heavy_path import HeavyPathRouter

        interval = ScaleFreeLabeledScheme(grid_metric, params)
        heavy = ScaleFreeLabeledScheme(
            grid_metric, params, tree_router_cls=HeavyPathRouter
        )
        # FG-style labels are log^2-ish, interval labels log n: the
        # header codec reflects the substrate choice.
        assert heavy.header_bits() >= interval.header_bits()


#: Every scheme with a codec; the landmark scheme sizes its headers by
#: formula and has none.
CODEC_SCHEMES = {
    "shortest-path": (ShortestPathScheme, {}),
    "cowen": (CowenLandmarkScheme, {}),
    "labeled-nsf": (NonScaleFreeLabeledScheme, {}),
    "labeled-sf": (ScaleFreeLabeledScheme, {}),
    "labeled-sf-heavy": (
        ScaleFreeLabeledScheme,
        {"tree_router_cls": HeavyPathRouter},
    ),
    "thm14": (SimpleNameIndependentScheme, {}),
    "thm11": (ScaleFreeNameIndependentScheme, {}),
}


def _built(key, metric, params, context=None):
    cls, kwargs = CODEC_SCHEMES[key]
    context = BuildContext() if context is None else context
    return context.scheme(cls, metric, params, **kwargs)


def _widths(codec):
    return {f.name: f.width for f in codec.fields}


@pytest.mark.parametrize("key", sorted(CODEC_SCHEMES))
class TestCodecBuiltOnce:
    def test_repeated_calls_share_one_codec(self, key, grid_metric, params):
        scheme = _built(key, grid_metric, params)
        codec = scheme.header_codec()
        assert scheme.header_codec() is codec
        assert scheme.header_bits() == codec.total_bits
        assert scheme._header_layout().fields == codec.fields
        route = scheme.route(0, grid_metric.n - 1)
        assert route.header_bits == codec.total_bits

    def test_metric_repairs_leave_the_codec(self, key, params):
        # Corrupt one row, then splice another: the splice drops the
        # cached diameter, which is re-read with the corrupted row in
        # it.  The built scheme's layout must not follow.
        metric = GraphMetric(grid_2d(6))
        scheme = _built(key, metric, params)
        codec = scheme.header_codec()
        fields = codec.fields
        log_diameter = metric.log_diameter
        dist, _ = metric.mutable_row(0)
        dist *= 40.0
        metric.invalidate_derived(0)
        metric.splice_rows([1])
        assert metric.log_diameter > log_diameter
        assert scheme.header_codec() is codec
        assert codec.fields == fields
        assert scheme.header_bits() == codec.total_bits

    def test_cache_dir_round_trip(self, key, tmp_path, params):
        graph = grid_2d(6)
        first = BuildContext(cache_dir=str(tmp_path))
        built = _built(key, first.metric(graph), params, first)
        fields = built.header_codec().fields
        second = BuildContext(cache_dir=str(tmp_path))
        loaded = _built(key, second.metric(graph), params, second)
        assert second.stats.disk_hits["scheme"] == 1
        assert loaded.header_codec().fields == fields
        assert loaded.header_bits() == built.header_bits()
        # A scheme pickled after its codec was built keeps it.
        assert pickle.loads(pickle.dumps(built)).header_codec().fields == fields


class TestCodecAfterEdits:
    def test_partial_rebuild_builds_from_the_edited_metric(self, params):
        # Removing an edge of a unit clique takes log Δ from 0 to 1,
        # while the hierarchy (top level 1 either way) is promoted, and
        # Theorem 1.4 and its labeled scheme are built again on it.  The
        # search-level field must widen with the edited metric.
        graph = nx.complete_graph(6)
        context = BuildContext()
        before = context.scheme(
            SimpleNameIndependentScheme, context.metric(graph), params
        )
        assert _widths(before.header_codec())["search_level"] == 1
        context.apply_edit(graph, GraphEdit(EditKind.EDGE_REMOVE, edge=(1, 2)))
        metric = context.metric(graph)
        after = context.scheme(SimpleNameIndependentScheme, metric, params)
        assert after is not before
        assert after.hierarchy is before.hierarchy
        assert metric.log_diameter == 1
        for scheme in (after, after.underlying):
            assert scheme.header_codec().fields == scheme._header_layout().fields
        assert _widths(after.header_codec())["search_level"] == 2

    def test_shortest_path_promotion_rebuilds_its_codec(self, params):
        graph = grid_2d(4)
        context = BuildContext()
        before = context.scheme(
            ShortestPathScheme, context.metric(graph), params
        )
        old_codec = before.header_codec()
        context.apply_edit(
            graph, GraphEdit(EditKind.WEIGHT, edge=(0, 1), weight=3.0)
        )
        metric = context.metric(graph)
        after = context.scheme(ShortestPathScheme, metric, params)
        assert after.metric is metric
        codec = after.header_codec()
        assert codec is not old_codec
        assert codec.fields == shortest_path_codec(metric).fields


def _all_scheme_codecs(metric):
    """One codec per scheme family (the whole wire-format catalog)."""
    return [
        shortest_path_codec(metric),
        cowen_landmark_codec(metric),
        labeled_simple_codec(metric),
        labeled_scalefree_codec(metric),
        name_independent_codec(metric, labeled_simple_codec(metric)),
        name_independent_codec(metric, labeled_scalefree_codec(metric)),
    ]


def _max_values(codec):
    return {f.name: (1 << f.width) - 1 for f in codec.fields if f.width}


class TestChecksumCodec:
    def test_round_trip_every_scheme_codec(self, grid_metric):
        """Checksummed headers round-trip for all six scheme codecs."""
        for base in _all_scheme_codecs(grid_metric):
            for width in (8, 16):
                codec = with_checksum(base, width)
                assert codec.total_bits == base.total_bits + width
                assert codec.payload_bits == base.total_bits
                values = _max_values(base)
                data, bits = codec.encode(values)
                assert bits == codec.total_bits
                assert codec.verify(data, bits)
                decoded = codec.decode(data, bits)
                for name, value in values.items():
                    assert decoded[name] == value

    def test_every_single_bit_flip_detected(self, grid_metric):
        """Any one flipped bit is caught (CRC polys have the +1 term)."""
        for base in _all_scheme_codecs(grid_metric):
            codec = with_checksum(base, 8)
            data, bits = codec.encode(_max_values(base))
            for position in range(bits):
                flipped = flip_bits(data, [position])
                assert not codec.verify(flipped, bits), (
                    f"bit {position} flip undetected in {base!r}"
                )
                with pytest.raises(HeaderCorruptionError):
                    codec.decode(flipped, bits)

    def test_multi_bit_miss_rate_within_bound(self, grid_metric):
        """Random multi-bit corruption escapes with probability ~2^-k."""
        codec = with_checksum(labeled_scalefree_codec(grid_metric), 8)
        data, bits = codec.encode(
            _max_values(labeled_scalefree_codec(grid_metric))
        )
        rng = random.Random(99)
        trials, undetected = 3000, 0
        for _ in range(trials):
            count = rng.randrange(2, bits + 1)
            flipped = flip_bits(data, rng.sample(range(bits), count))
            if codec.verify(flipped, bits):
                undetected += 1
        # Expected miss rate 2^-8 ~ 0.0039; allow a generous 3x margin
        # (the trial stream is seeded, so this is deterministic).
        assert undetected / trials < 3 * 2**-8

    def test_crc_of_appended_message_is_zero(self):
        """Message + its own CRC has syndrome zero (the defining check)."""
        codec = ChecksumCodec([FieldSpec("a", 11), FieldSpec("b", 5)], 8)
        data, bits = codec.encode({"a": 1234, "b": 9})
        assert crc_of_bits(data, bits, 8) == 0

    def test_verify_rejects_wrong_length(self, grid_metric):
        codec = with_checksum(shortest_path_codec(grid_metric))
        data, bits = codec.encode({"target_name": 3})
        assert not codec.verify(data, bits + 1)

    def test_with_checksum_idempotent(self, grid_metric):
        codec = with_checksum(shortest_path_codec(grid_metric))
        assert with_checksum(codec) is codec

    def test_duplicate_checksum_field_rejected(self):
        with pytest.raises(ValueError):
            ChecksumCodec([FieldSpec(CHECKSUM_FIELD, 8)])

    def test_unsupported_width_rejected(self, grid_metric):
        with pytest.raises(ValueError):
            with_checksum(shortest_path_codec(grid_metric), 7)
        with pytest.raises(ValueError):
            crc_of_bits(b"\x00", 8, 12)


class TestFlipBits:
    def test_double_flip_is_identity(self):
        data = bytes([0b10110010, 0b01000001])
        assert flip_bits(flip_bits(data, [0, 9, 15]), [15, 0, 9]) == data

    def test_flip_positions_msb_first(self):
        assert flip_bits(b"\x00", [0]) == b"\x80"
        assert flip_bits(b"\x00", [7]) == b"\x01"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_bits(b"\x00", [8])
        with pytest.raises(ValueError):
            flip_bits(b"\x00", [-1])
