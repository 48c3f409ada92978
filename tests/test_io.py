import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilin.errors import (
    BoundsError,
    ConfigError,
    CorruptFileError,
    FormatError,
    ModelValueError,
    NumericError,
    ShapeError,
)
from bilin.io import (
    BFM_MAGIC,
    BGM_MAGIC,
    FeatureMap,
    load_feature_map,
    load_gallery,
    load_store,
    save_feature_map,
    save_gallery,
    save_store,
)
from bilin.svm import GalleryModelSet


def write_bfm(path, h, w, c, flags, payload_floats):
    with open(path, "wb") as f:
        f.write(BFM_MAGIC)
        f.write(struct.pack("<IIIB3x", h, w, c, flags))
        f.write(np.asarray(payload_floats, dtype="<f4").tobytes())


class TestFeatureMapFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.random((27, 27, 512)).astype(np.float32)
        path = tmp_path / "big.bfm"
        save_feature_map(path, values, rectified=True)
        loaded = load_feature_map(path)
        assert loaded.rectified
        assert loaded.values.dtype == np.float32
        assert np.array_equal(loaded.values, values)
        save_feature_map(tmp_path / "again.bfm", loaded)
        assert (tmp_path / "again.bfm").read_bytes() == path.read_bytes()

    def test_round_trip_small_shapes(self, tmp_path, rng):
        for shape in [(1, 1, 1), (2, 3, 4), (5, 1, 7)]:
            values = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / "m.bfm"
            save_feature_map(path, values)
            assert np.array_equal(load_feature_map(path).values, values)

    def test_truncated_payload_is_corruption(self, tmp_path):
        path = tmp_path / "short.bfm"
        write_bfm(path, 4, 4, 3, 0, np.zeros(47))
        with pytest.raises(CorruptFileError):
            load_feature_map(path)

    def test_oversized_payload_is_corruption(self, tmp_path):
        path = tmp_path / "long.bfm"
        write_bfm(path, 4, 4, 3, 0, np.zeros(49))
        with pytest.raises(CorruptFileError):
            load_feature_map(path)

    def test_all_zero_payload_is_accepted(self, tmp_path):
        path = tmp_path / "zero.bfm"
        write_bfm(path, 2, 2, 2, 1, np.zeros(8))
        fmap = load_feature_map(path)
        assert fmap.rectified
        assert not fmap.values.any()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bfm"
        data = bytearray()
        data += b"NOPE" + struct.pack("<IIIB3x", 1, 1, 1, 0)
        data += struct.pack("<f", 0.0)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_feature_map(path)

    def test_unknown_flag_bits(self, tmp_path):
        path = tmp_path / "flags.bfm"
        write_bfm(path, 1, 1, 1, 0x82, [0.0])
        with pytest.raises(FormatError):
            load_feature_map(path)

    def test_zero_dimension_is_bounds_error(self, tmp_path):
        path = tmp_path / "dim.bfm"
        write_bfm(path, 0, 4, 3, 0, [])
        with pytest.raises(BoundsError):
            load_feature_map(path)

    def test_dimension_overflow_is_bounds_error(self, tmp_path):
        path = tmp_path / "huge.bfm"
        with open(path, "wb") as f:
            f.write(BFM_MAGIC)
            f.write(struct.pack("<IIIB3x", 2**16, 2**16, 512, 0))
        with pytest.raises(BoundsError):
            load_feature_map(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.bfm"
        path.write_bytes(BFM_MAGIC + b"\x01\x00")
        with pytest.raises(CorruptFileError):
            load_feature_map(path)

    def test_rectified_negative_values_rejected_on_save(self, tmp_path):
        with pytest.raises(NumericError):
            save_feature_map(tmp_path / "neg.bfm", -np.ones((1, 1, 1)),
                             rectified=True)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(NumericError):
            save_feature_map(tmp_path / "nan.bfm", np.full((1, 1, 2), np.nan))

    def test_feature_map_accessors(self, rng):
        fmap = FeatureMap(rng.random((3, 4, 5)).astype(np.float32))
        assert (fmap.height, fmap.width, fmap.channels) == (3, 4, 5)


def toy_gallery(rng, dim=6, n=3):
    f32 = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
    return GalleryModelSet(
        identity_ids=[f"id{i:02d}" for i in range(n)],
        w=rng.standard_normal((n, dim)).astype(np.float32),
        b=f32(rng.standard_normal(n)),
        rescale_a=f32(rng.random(n) + 0.5),
        rescale_b=f32(rng.standard_normal(n)),
    )


class TestGalleryFormat:
    def test_round_trip_values(self, tmp_path, rng):
        gallery = toy_gallery(rng)
        path = tmp_path / "g.bgm"
        save_gallery(path, gallery)
        loaded = load_gallery(path)
        assert loaded.descriptor_dim == gallery.descriptor_dim
        assert loaded.identity_ids == gallery.identity_ids
        assert np.array_equal(loaded.w, gallery.w)
        assert np.array_equal(loaded.b, gallery.b.astype(np.float32))
        assert np.array_equal(loaded.rescale_a,
                              gallery.rescale_a.astype(np.float32))
        assert np.array_equal(loaded.rescale_b,
                              gallery.rescale_b.astype(np.float32))

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        gallery = toy_gallery(rng)
        first = tmp_path / "a.bgm"
        second = tmp_path / "b.bgm"
        save_gallery(first, gallery)
        save_gallery(second, load_gallery(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bgm"
        path.write_bytes(b"XXXX" + struct.pack("<II", 0, 1))
        with pytest.raises(FormatError):
            load_gallery(path)

    def test_trailing_bytes_are_corruption(self, tmp_path, rng):
        path = tmp_path / "g.bgm"
        save_gallery(path, toy_gallery(rng))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFileError):
            load_gallery(path)

    def test_truncated_record_is_corruption(self, tmp_path, rng):
        path = tmp_path / "g.bgm"
        save_gallery(path, toy_gallery(rng))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(CorruptFileError):
            load_gallery(path)
        # a count the file cannot hold is refused before any allocation
        path.write_bytes(BGM_MAGIC + struct.pack("<II", 2**32 - 1, 2**20))
        with pytest.raises(CorruptFileError):
            load_gallery(path)

    @pytest.mark.parametrize("field, row, value", [
        ("w", 1, np.nan), ("rescale_a", 0, 0.0), ("rescale_a", 2, -1.0),
    ])
    def test_invalid_model_values_rejected(self, tmp_path, rng, field, row, value):
        gallery = toy_gallery(rng)
        getattr(gallery, field)[row] = value
        path = tmp_path / "g.bgm"
        save_gallery(path, gallery)
        with pytest.raises(ModelValueError):
            load_gallery(path)

    @pytest.mark.parametrize("tail", [(0x7F800001, 0x3F800000, 0), (0, 0xFFC00000, 0)])
    def test_nan_bit_patterns_rejected_without_warning(self, tmp_path, tail):
        # a signalling NaN (0x7f800001) raises "invalid" when cast to float64
        path = tmp_path / "g.bgm"
        path.write_bytes(BGM_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"a"
                         + struct.pack("<f3I", 0.0, *tail))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValueError):
                load_gallery(path)

    def test_unicode_identity_ids(self, tmp_path):
        gallery = GalleryModelSet(["pérsonne-01"], np.zeros((1, 2), np.float32),
                                  np.zeros(1), np.ones(1), np.zeros(1))
        path = tmp_path / "u.bgm"
        save_gallery(path, gallery)
        assert load_gallery(path).identity_ids == ["pérsonne-01"]

    @pytest.mark.parametrize("ids", [[b"\xff\xfe"], [b"b", b"a"], [b"a", b"a"]])
    def test_undecodable_or_unordered_ids_are_corruption(self, tmp_path, ids):
        data = BGM_MAGIC + struct.pack("<II", len(ids), 1)
        for raw in ids:
            data += struct.pack("<H", len(raw)) + raw + struct.pack("<4f", 0, 0, 1, 0)
        path = tmp_path / "g.bgm"
        path.write_bytes(data)
        with pytest.raises(CorruptFileError):
            load_gallery(path)


def toy_store(path, rng, n=4, dim=5):
    ids = [f"m{i}" for i in range(n)]
    descriptors = list(rng.standard_normal((n, dim)))
    save_store(path, ids, descriptors)
    return ids, descriptors


class TestDescriptorFiles:
    """The descriptor store: descriptors.npy and manifest.csv."""

    def test_round_trip_float32(self, tmp_path, rng):
        ids, descriptors = toy_store(tmp_path, rng)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "descriptors.npy", "manifest.csv"]
        assert (tmp_path / "manifest.csv").read_text().split() == ["media_id", *ids]
        loaded = load_store(tmp_path, [ids[2], ids[0], ids[2]])
        assert loaded.dtype == np.float32
        expected = np.float32([descriptors[2], descriptors[0], descriptors[2]])
        assert np.array_equal(loaded, expected)
        assert np.array_equal(np.load(tmp_path / "descriptors.npy"),
                               np.float32(descriptors))

    def test_rejects_non_matrix(self, tmp_path, rng):
        ids, _ = toy_store(tmp_path, rng)
        for array in (np.ones(4, np.float32), np.ones((4, 1, 5), np.float32),
                      np.ones((4, 5)), np.asfortranarray(np.ones((4, 5), np.float32))):
            np.save(tmp_path / "descriptors.npy", array)
            with pytest.raises(FormatError):
                load_store(tmp_path, ids[:1])

    @pytest.mark.parametrize("edit", ["drop_name", "truncate", "append"])
    def test_row_count_or_length_mismatch_is_corruption(self, tmp_path, rng, edit):
        ids, _ = toy_store(tmp_path, rng)
        store, manifest = tmp_path / "descriptors.npy", tmp_path / "manifest.csv"
        if edit == "drop_name":
            manifest.write_text("\n".join(["media_id", *ids[:-1]]) + "\n")
        elif edit == "truncate":
            store.write_bytes(store.read_bytes()[:-1])
        else:
            store.write_bytes(store.read_bytes() + b"\0" * 4)
        with pytest.raises(CorruptFileError):
            load_store(tmp_path, ids[:1])

    def test_only_requested_rows_are_read_and_checked(self, tmp_path, rng):
        ids, descriptors = toy_store(tmp_path, rng)
        descriptors[1][3] = np.nan
        save_store(tmp_path, ids, descriptors)
        assert load_store(tmp_path, [ids[0], ids[2]]).shape == (2, 5)
        with pytest.raises(CorruptFileError):
            load_store(tmp_path, [ids[0], ids[1]])

    def test_failed_write_removes_temporary_and_made_directories(self, tmp_path, rng):
        rows = [np.ones(5), np.ones(4)]
        for out in (tmp_path, tmp_path / "a" / "b"):
            with pytest.raises(ShapeError):
                save_store(out, ["m0", "m1"], rows)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ShapeError, match="2 rows got 1"):
            save_store(tmp_path, ["m0", "m1"], rows[:1])
        assert list(tmp_path.iterdir()) == []

    def test_missing_store_or_medium_is_config_error(self, tmp_path, rng):
        with pytest.raises(ConfigError):
            load_store(tmp_path, ["m0"])
        toy_store(tmp_path, rng)
        with pytest.raises(ConfigError, match="'m9'"):
            load_store(tmp_path, ["m0", "m9"])

    @pytest.mark.parametrize("text", [
        "media_id,path,dim\nm0,descriptors/m0.npy,5\n",  # per-medium layout
        "media_id\nm0\nm0\nm1\nm2\n",
    ])
    def test_malformed_manifest_rejected(self, tmp_path, rng, text):
        toy_store(tmp_path, rng)
        (tmp_path / "manifest.csv").write_text(text)
        with pytest.raises(FormatError):
            load_store(tmp_path, ["m0"])


# Byte mutations: (offset, new byte) pairs, then an optional cut or extension.
mutations = st.tuples(
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(-8, 8)),
)
fuzz = settings(max_examples=300, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data, edits, offsets_within):
    changes, resize = edits
    data = bytearray(data)
    for offset, value in changes:
        data[offset % offsets_within] = value
    if resize is not None:
        data = data[:len(data) + resize] if resize < 0 else data + bytes(resize)
    return bytes(data)


class TestMutatedFilesRaiseFormatErrors:
    """A corrupt file may load, but any failure is in the FormatError family."""

    @fuzz
    @given(edits=mutations)
    def test_gallery(self, tmp_path, edits):
        path = tmp_path / "g.bgm"
        save_gallery(path, toy_gallery(np.random.default_rng(3)))
        data = path.read_bytes()
        path.write_bytes(mutate(data, edits, len(data)))
        try:
            load_gallery(path)
        except FormatError:
            pass

    @fuzz
    @given(edits=mutations, in_header=st.booleans())
    def test_feature_map(self, tmp_path, edits, in_header):
        path = tmp_path / "m.bfm"
        # rectified and non-negative: only a payload edit can make it invalid
        save_feature_map(path, np.random.default_rng(3).random((3, 4, 5)), rectified=True)
        data = path.read_bytes()
        header = 20
        edited = mutate(data, edits, header) if in_header else \
            data[:header] + mutate(data[header:], edits, len(data) - header)
        path.write_bytes(edited)
        try:
            load_feature_map(path)
        except FormatError:
            pass
        except NumericError:  # a non-finite or negative value, which encode reports
            assert not in_header

    @fuzz
    @given(edits=mutations, in_header=st.booleans())
    def test_descriptor_store(self, tmp_path, edits, in_header):
        ids, _ = toy_store(tmp_path, np.random.default_rng(3))
        path = tmp_path / "descriptors.npy"
        data = path.read_bytes()
        header = 128  # the version 1.0 header of a small array
        edited = mutate(data, edits, header) if in_header else \
            data[:header] + mutate(data[header:], edits, len(data) - header)
        path.write_bytes(edited)
        try:
            load_store(tmp_path, ids)
        except FormatError:
            pass
