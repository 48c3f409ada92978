import os
import struct
import tracemalloc
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
    MAX_MAP_ELEMENTS,
    MapFile,
    MapReader,
    Outputs,
    StoreReader,
    StoreWriter,
    load_feature_map,
    load_gallery,
    load_store,
    map_faults,
    read_feature_map,
    save_feature_map,
    save_gallery,
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

    def test_load_holds_one_copy_of_the_payload(self, tmp_path, rng):
        values = rng.random((27, 27, 64)).astype(np.float32)
        path = tmp_path / "m.bfm"
        save_feature_map(path, values, rectified=True)
        tracemalloc.start()
        try:
            loaded = load_feature_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, values)
        assert peak < 1.5 * values.nbytes

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

    def test_missing_payload_is_corruption_before_allocating(self, tmp_path):
        path = tmp_path / "stub.bfm"
        write_bfm(path, 2**14, 2**7, 2**7, 0, [])
        assert 2**14 * 2**7 * 2**7 == MAX_MAP_ELEMENTS
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="header declares"):
                load_feature_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_file_is_corruption_reading_only_what_the_header_declares(self, tmp_path, rng):
        values = rng.random((16, 16, 1024)).astype(np.float32)
        path = tmp_path / "long.bfm"
        save_feature_map(path, values)
        os.truncate(path, path.stat().st_size + 64 * 2**20)  # a sparse 64 MiB tail
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="payload holds more"):
                read_feature_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * values.nbytes

    @pytest.mark.parametrize("header, floats", [
        (BFM_MAGIC, 0), (b"XXXX" + bytes(16), 0), (None, 7), (None, 9), (None, 8)],
        ids=["short-header", "bad-magic", "short-payload", "long-payload", "sound"])
    def test_every_read_closes_its_file(self, tmp_path, monkeypatch, header, floats):
        path = tmp_path / "m.bfm"
        header = header or BFM_MAGIC + struct.pack("<IIIB3x", 2, 2, 2, 0)
        path.write_bytes(header + bytes(4 * floats))
        opened, closed = [], []
        real_open, real_close = os.open, os.close
        monkeypatch.setattr(os, "open", lambda *a: opened.append(real_open(*a)) or opened[-1])
        monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
        try:
            read_feature_map(path)
        except FormatError:
            assert floats != 8
        assert len(opened) == 1 and closed == opened

    def test_a_directory_is_an_os_error_naming_it(self, tmp_path):
        path = tmp_path / "m.bfm"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            read_feature_map(path)
        assert str(info.value) == f"[Errno {info.value.errno}] Is a directory: {str(path)!r}"

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

    @pytest.mark.parametrize("offset", [17, 18, 19])
    def test_nonzero_reserved_bytes(self, tmp_path, offset):
        path = tmp_path / "reserved.bfm"
        write_bfm(path, 1, 1, 1, 0, [0.0])
        data = bytearray(path.read_bytes())
        data[offset] = 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as info:
            read_feature_map(path)
        reserved = " ".join("40" if i == offset else "00" for i in (17, 18, 19))
        assert str(info.value) == f"{path}: reserved header bytes {reserved} are not zero"

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

    def test_oversized_map_is_refused_before_it_is_copied_or_checked(self, tmp_path,
                                                                     monkeypatch):
        def forbidden(*args):
            raise AssertionError("the values of an oversized map were checked")

        monkeypatch.setattr("bilin.io.MAX_MAP_ELEMENTS", 64)
        monkeypatch.setattr("bilin.io.map_faults", forbidden)
        path = tmp_path / "big.bfm"
        with pytest.raises(BoundsError, match="map of 5x5x3 exceeds the format limit"):
            save_feature_map(path, np.ones((5, 5, 3)))
        assert not path.exists()


def toy_gallery(rng, dim=6, n=3):
    f32 = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
    return GalleryModelSet(
        identity_ids=[f"id{i:02d}" for i in range(n)],
        w=rng.standard_normal((n, dim)).astype(np.float32),
        b=f32(rng.standard_normal(n)),
        rescale_a=f32(rng.random(n) + 0.5),
        rescale_b=f32(rng.standard_normal(n)),
    )


class TestMapReader:
    """Maps read a chunk at a time into one reused float32 stack."""

    @pytest.fixture
    def maps(self, tmp_path, rng):
        shapes = [(3, 3, 2)] * 3 + [(2, 4, 2), (3, 3, 2)]
        paths = [tmp_path / f"m{i}.bfm" for i in range(len(shapes))]
        for i, (path, shape) in enumerate(zip(paths, shapes)):
            save_feature_map(path, rng.random(shape), rectified=i % 2 == 0)
        return paths, shapes

    def test_chunks_hold_the_bits_read_feature_map_reads(self, maps):
        paths, _ = maps
        failures, chunks = [], []
        for positions, stack, rectified in MapReader().chunks(paths, lambda shape: 2, failures):
            chunks.append(positions)
            for position, values, flag in zip(positions, stack, rectified):
                fmap = read_feature_map(paths[position])
                assert values.tobytes() == fmap.values.tobytes() and flag == fmap.rectified
        assert failures == [] and chunks == [[0, 1], [2], [3], [4]]

    def test_a_failed_map_is_listed_and_left_out_of_its_chunk(self, maps):
        paths, _ = maps
        paths[0].write_bytes(paths[0].read_bytes()[:-4])
        paths[1].unlink()
        values = np.ones((3, 3, 2), dtype="<f4")
        values[1, 1, 1] = np.inf
        paths[2].write_bytes(paths[2].read_bytes()[:20] + values.tobytes())
        failures, chunks = [], []
        for positions, stack, _ in MapReader().chunks(paths, lambda shape: 2, failures):
            chunks.append((positions, stack.shape))
        assert chunks == [([2], (1, 3, 3, 2)), ([3], (1, 2, 4, 2)), ([4], (1, 3, 3, 2))]
        assert [position for position, _ in failures] == [0, 1, 2]
        assert "payload holds 17" in failures[0][1]
        assert failures[1][1] == f"[Errno 2] No such file or directory: {str(paths[1])!r}"
        assert failures[2][1] == "feature map contains non-finite values"

    def test_reread_reuses_one_stack_and_rejects_a_changed_map(self, maps):
        paths, shapes = maps
        files = [MapFile(str(p), s, i % 2 == 0) for i, (p, s) in enumerate(zip(paths, shapes))]
        reader = MapReader()
        first = reader.reread(files[:3])
        assert first.tobytes() == np.stack(
            [read_feature_map(p).values for p in paths[:3]]).tobytes()
        assert np.shares_memory(first, reader.reread([files[4]]))
        save_feature_map(paths[4], np.ones((3, 3, 2)))  # the flag changed
        with pytest.raises(CorruptFileError, match="header changed since the first read"):
            reader.reread([files[4]])
        paths[3].write_bytes(paths[3].read_bytes() + b"\0")
        with pytest.raises(CorruptFileError, match="payload size changed"):
            reader.reread([files[3]])

    def test_a_map_of_the_chunks_shape_takes_one_readv(self, maps, monkeypatch):
        paths, _ = maps  # shapes A A A B A
        calls, open_at_yield = [], []
        for name in ("open", "close", "read", "readv", "lseek", "fstat"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *a, _name=name, _real=real:
                                calls.append(_name) or _real(*a))
        chunks = []
        for positions, stack, _ in MapReader().chunks(paths, lambda shape: 2, []):
            open_at_yield.append(calls.count("open") - calls.count("close"))
            chunks.append((positions, stack.copy()))
        monkeypatch.undo()
        checked = ["open", "read", "fstat", "close"]  # header, then sized
        one = ["open", "readv", "close"]  # header, slot and a byte past it
        # a map of another shape than the chunk's goes on by the checked path
        retry = ["open", "readv", "lseek", "read", "fstat", "close"]
        assert calls == checked + one + one + one + retry + one + retry + one
        assert open_at_yield == [0, 0, 0, 0]
        assert [positions for positions, _ in chunks] == [[0, 1], [2], [3], [4]]
        for positions, stack in chunks:
            assert stack.tobytes() == np.stack(
                [read_feature_map(paths[p]).values for p in positions]).tobytes()

    @pytest.mark.parametrize("damage", ["empty", "short-header", "short-payload", "long-payload",
                                        "bad-magic", "flag-bits", "reserved", "directory"])
    def test_a_bad_map_after_its_chunks_first_fails_as_read_alone(self, maps, damage):
        paths, _ = maps
        whole = paths[1].read_bytes()
        if damage == "directory":
            paths[1].unlink()
            paths[1].mkdir()
        else:
            paths[1].write_bytes({
                "empty": b"", "short-header": whole[:10], "short-payload": whole[:-4],
                "long-payload": whole + b"\0", "bad-magic": b"XFM1" + whole[4:],
                "flag-bits": whole[:16] + b"\x02" + whole[17:],
                "reserved": whole[:18] + b"\x01" + whole[19:]}[damage])
        with pytest.raises((FormatError, OSError)) as alone:
            read_feature_map(paths[1])
        failures = []
        chunks = [positions for positions, _, _ in
                  MapReader().chunks(paths, lambda shape: 3, failures)]
        assert failures == [(1, str(alone.value))]
        assert chunks == [[0, 2], [3], [4]]


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

    def test_load_holds_one_copy_of_the_weights(self, tmp_path, rng):
        gallery = toy_gallery(rng, dim=128 * 128, n=8)
        path = tmp_path / "g.bgm"
        save_gallery(path, gallery)
        tracemalloc.start()
        try:
            loaded = load_gallery(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.w, gallery.w)
        assert peak < 1.5 * gallery.w.nbytes

    def test_save_casts_one_row_at_a_time(self, tmp_path, rng):
        k, dim = 8, 262144
        gallery = GalleryModelSet([f"id{i}" for i in range(k)], rng.standard_normal((k, dim)),
                                  rng.standard_normal(k), rng.random(k) + 0.5,
                                  rng.standard_normal(k))
        path = tmp_path / "g.bgm"
        tracemalloc.start()
        try:
            save_gallery(path, gallery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gallery.w.nbytes / 2
        tail = np.stack([gallery.b, gallery.rescale_a, gallery.rescale_b], axis=1)
        expected = BGM_MAGIC + struct.pack("<II", k, dim) + b"".join(
            struct.pack("<H", len(identity_id)) + identity_id.encode()
            + w_row.astype("<f4").tobytes() + tail_row.astype("<f4").tobytes()
            for identity_id, w_row, tail_row in zip(gallery.identity_ids, gallery.w, tail))
        assert path.read_bytes() == expected

    def test_every_prefix_and_an_appended_byte_are_corruption(self, tmp_path, rng):
        path = tmp_path / "g.bgm"
        save_gallery(path, toy_gallery(rng, dim=3))
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(CorruptFileError):
                load_gallery(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(CorruptFileError) as info:
            load_gallery(path)
        assert str(info.value) == f"{path}: 1 trailing bytes"

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

    @pytest.mark.parametrize("data, error, message", [
        (BGM_MAGIC + struct.pack("<II", 1, 0), BoundsError, "non-positive descriptor dim"),
        # two models of dim 1: the first one's 3-byte id leaves 17 of the
        # 18 bytes that the second, with an empty id, needs
        (BGM_MAGIC + struct.pack("<IIH", 2, 1, 3) + b"abc" + struct.pack("<4f", 0, 0, 1, 0)
         + struct.pack("<H", 0) + bytes(15), CorruptFileError, "truncated model record"),
    ], ids=["zero-dim", "second-record-short"])
    def test_malformed_header_or_record(self, tmp_path, data, error, message):
        path = tmp_path / "g.bgm"
        path.write_bytes(data)
        with pytest.raises(error, match=message):
            load_gallery(path)

    def test_over_long_identity_id_is_refused_writing_nothing(self, tmp_path):
        gallery = GalleryModelSet(["a" * 0x10000], np.zeros((1, 2), np.float32),
                                  np.zeros(1), np.ones(1), np.zeros(1))
        path = tmp_path / "g.bgm"
        with pytest.raises(FormatError, match="identity id too long"):
            save_gallery(path, gallery)
        assert not path.exists()

    @pytest.mark.parametrize("ids", [[b"\xff\xfe"], [b"b", b"a"], [b"a", b"a"]])
    def test_undecodable_or_unordered_ids_are_corruption(self, tmp_path, ids):
        data = BGM_MAGIC + struct.pack("<II", len(ids), 1)
        for raw in ids:
            data += struct.pack("<H", len(raw)) + raw + struct.pack("<4f", 0, 0, 1, 0)
        path = tmp_path / "g.bgm"
        path.write_bytes(data)
        with pytest.raises(CorruptFileError):
            load_gallery(path)


def write_store(out_dir, media_ids, blocks):
    """A store of ``blocks``, each written as one block; a 1-D descriptor
    is written as a (1, dim) block."""
    with Outputs(out_dir) as out, StoreWriter(out, media_ids) as store:
        for block in blocks:
            store.write(block[None] if np.ndim(block) == 1 else block)
        store.finish()
        out.commit()


def test_stack_check_finds_what_each_map_check_finds(tmp_path, rng):
    maps = rng.random((5, 2, 3, 4)).astype(np.float32)
    maps[1, 0, 2, 3] = np.nan
    maps[2, 1, 1, 0] = -1.0
    maps[3, 0, 0, 0] = -np.inf
    rectified = [True, True, True, True, False]
    maps[4, 1, 2, 3] = -2.0  # allowed: not rectified
    expected = []
    for i, (values, flag) in enumerate(zip(maps, rectified)):
        path = tmp_path / f"m{i}.bfm"
        write_bfm(path, 2, 3, 4, int(flag), values)
        assert np.array_equal(read_feature_map(path).values, values, equal_nan=True)
        try:
            load_feature_map(path)
            expected.append(None)
        except NumericError as exc:
            expected.append(str(exc))
    assert map_faults(maps, rectified) == expected
    assert expected[0] is None and expected[4] is None and None not in expected[1:4]


def toy_store(path, rng, n=4, dim=5):
    ids = [f"m{i}" for i in range(n)]
    descriptors = list(rng.standard_normal((n, dim)))
    write_store(path, ids, descriptors)
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
        write_store(tmp_path, ids, descriptors)
        assert load_store(tmp_path, [ids[0], ids[2]]).shape == (2, 5)
        with pytest.raises(CorruptFileError):
            load_store(tmp_path, [ids[0], ids[1]])

    @pytest.mark.parametrize("run_rows", [1, 2, 100])
    def test_reader_fills_blocks_into_one_buffer(self, tmp_path, rng, monkeypatch, run_rows):
        monkeypatch.setattr("bilin.io.READ_RUN_BYTES", run_rows * 4 * 5)
        ids, descriptors = toy_store(tmp_path, rng, n=6)
        # runs of consecutive store rows, a jump back and a repeat
        order = [ids[4], ids[5], ids[0], ids[2], ids[3], ids[3], ids[1]]
        whole = load_store(tmp_path, order)
        assert np.array_equal(whole, np.float32([descriptors[int(m[1:])] for m in order]))
        with StoreReader(tmp_path, order) as store:
            assert store.dim == 5
            first = store.read(0, 4)
            assert np.array_equal(first, whole[:4])
            rest = store.read(4, 7)
            assert np.array_equal(rest, whole[4:])
            assert np.shares_memory(first, rest)
            assert store.read(2, 2).shape == (0, 5)

    def test_load_holds_one_copy_of_the_rows(self, tmp_path, rng):
        ids = [f"m{i}" for i in range(64)]
        write_store(tmp_path, ids, [rng.standard_normal((64, 128 * 128))])
        tracemalloc.start()
        try:
            rows = load_store(tmp_path, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (64, 128 * 128)
        assert peak < 1.1 * rows.nbytes

    def test_reader_checks_each_block_as_it_reads(self, tmp_path, rng):
        ids, descriptors = toy_store(tmp_path, rng, n=6)
        descriptors[4][0] = np.inf
        write_store(tmp_path, ids, descriptors)
        with StoreReader(tmp_path, ids) as store:
            store.read(0, 4)
            with pytest.raises(CorruptFileError, match=r"row 4 \(m4\) is short or non-finite"):
                store.read(3, 6)
        toy_store(tmp_path, rng, n=6, dim=1024)  # rows past the read buffer
        path = tmp_path / "descriptors.npy"
        with StoreReader(tmp_path, ids) as store:
            os.truncate(path, path.stat().st_size - 3)  # cut after the checks at opening
            store.read(0, 4)
            with pytest.raises(CorruptFileError, match=r"row 5 \(m5\) is short or non-finite"):
                store.read(3, 6)

    def test_columns_are_blocks_of_the_rows(self, tmp_path, rng):
        ids, _ = toy_store(tmp_path, rng, n=6, dim=7)
        order = [ids[4], ids[0], ids[4], ids[2]]
        whole = load_store(tmp_path, order)
        with StoreReader(tmp_path, order) as store:
            assert store.shape == (4, 7)
            blocks = [store.columns(lo, lo + 3) for lo in range(0, 7, 3)]
        assert [b.shape for b in blocks] == [(4, 3), (4, 3), (4, 1)]  # hi clipped at dim
        assert all(b.dtype == np.float32 for b in blocks)
        assert np.array_equal(np.hstack(blocks), whole)

    def test_columns_check_each_row_they_read(self, tmp_path, rng):
        ids, descriptors = toy_store(tmp_path, rng, n=6, dim=8)
        descriptors[4][6] = np.nan
        write_store(tmp_path, ids, descriptors)
        order = [ids[1], ids[4], ids[0]]
        with StoreReader(tmp_path, order) as store:
            store.columns(0, 4)  # the bad value lies in the other block
            with pytest.raises(CorruptFileError, match=r"row 4 \(m4\) is short or non-finite"):
                store.columns(4, 8)
        toy_store(tmp_path, rng, n=6, dim=8)
        path = tmp_path / "descriptors.npy"
        with StoreReader(tmp_path, [ids[5], ids[2]]) as store:
            os.truncate(path, path.stat().st_size - 3)  # cut after the checks at opening
            store.columns(0, 4)
            with pytest.raises(CorruptFileError, match=r"row 5 \(m5\) is short or non-finite"):
                store.columns(4, 8)

    def test_failed_write_removes_temporary_and_made_directories(self, tmp_path, rng):
        rows = [np.ones(5), np.ones(4)]
        for out in (tmp_path, tmp_path / "a" / "b"):
            with pytest.raises(ShapeError):
                write_store(out, ["m0", "m1"], rows)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ShapeError, match="2 rows got 1"):
            write_store(tmp_path, ["m0", "m1"], rows[:1])
        assert list(tmp_path.iterdir()) == []

    def test_blocks_write_the_bytes_of_single_rows(self, tmp_path, rng):
        ids = [f"m{i}" for i in range(7)]
        rows = rng.standard_normal((7, 5))
        write_store(tmp_path / "rows", ids, list(rows))
        write_store(tmp_path / "blocks", ids, [rows[0], rows[1:4], rows[4:4], rows[4:]])
        for name in ("descriptors.npy", "manifest.csv"):
            assert (tmp_path / "blocks" / name).read_bytes() == \
                (tmp_path / "rows" / name).read_bytes()
        with pytest.raises(ShapeError):
            write_store(tmp_path / "cube", ids, [rows[None]])
        with pytest.raises(ShapeError, match="has dim 4, row 0 dim 5"):
            write_store(tmp_path / "mixed", ids, [rows[:2], rows[2:, :4]])
        assert not (tmp_path / "cube").exists() and not (tmp_path / "mixed").exists()

    def test_one_d_row_is_a_shape_error(self, tmp_path, rng):
        with Outputs(tmp_path / "out") as out, StoreWriter(out, ["m0"]) as store:
            with pytest.raises(ShapeError, match=r"\(k, dim\) block of rows, got shape \(5,\)"):
                store.write(rng.standard_normal(5))
            store.write(rng.standard_normal((1, 5)))
            store.finish()
            out.commit()
        assert load_store(tmp_path / "out", ["m0"]).shape == (1, 5)

    def test_missing_store_or_medium_is_config_error(self, tmp_path, rng):
        with pytest.raises(ConfigError):
            load_store(tmp_path, ["m0"])
        toy_store(tmp_path, rng)
        with pytest.raises(ConfigError, match="'m9'"):
            load_store(tmp_path, ["m0", "m9"])

    @pytest.mark.parametrize("edit, error, message", [
        ("version-2.0", FormatError, "not a version 1.0 .npy file"),
        ("zero-dim", BoundsError, "non-positive descriptor dim 0"),
    ])
    def test_malformed_array_header_rejected(self, tmp_path, rng, edit, error, message):
        ids, descriptors = toy_store(tmp_path, rng)
        with open(tmp_path / "descriptors.npy", "wb") as f:
            if edit == "version-2.0":
                np.lib.format.write_array(f, np.float32(descriptors), version=(2, 0))
            else:
                np.lib.format.write_array(f, np.zeros((len(ids), 0), np.float32))
        with pytest.raises(error, match=message):
            load_store(tmp_path, ids[:1])

    @pytest.mark.parametrize("text", [
        "media_id,path,dim\nm0,descriptors/m0.npy,5\n",  # per-medium layout
        "media_id\nm0\nm0\nm1\nm2\n",
    ])
    def test_malformed_manifest_rejected(self, tmp_path, rng, text):
        toy_store(tmp_path, rng)
        (tmp_path / "manifest.csv").write_text(text)
        with pytest.raises(FormatError):
            load_store(tmp_path, ["m0"])


class TestOutputs:
    """The staging helper every stage writes its outputs through."""

    def test_commit_renames_in_the_order_named(self, tmp_path, monkeypatch):
        renamed = []
        replace = os.replace
        monkeypatch.setattr("bilin.io.os.replace",
                            lambda src, dst: renamed.append(dst.name) or replace(src, dst))
        out_dir = tmp_path / "a" / "b"
        with Outputs(out_dir) as out:
            for name in ("z.csv", "a.json", "run_config.txt"):
                path = out.path(name)
                assert path == out_dir / f"{name}.tmp"
                path.write_text(name)
            assert {p.suffix for p in out_dir.iterdir()} == {".tmp"} and renamed == []
            out.commit()
        assert renamed == ["z.csv", "a.json", "run_config.txt"]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(renamed)
        assert (out_dir / "a.json").read_text() == "a.json"

    def test_crash_between_renames_leaves_no_old_marker(self, tmp_path, monkeypatch):
        names = ("a.csv", "b.csv", "run_config.txt")
        for name in names:
            (tmp_path / name).write_text("old")
        replace, calls = os.replace, []

        def crash_on_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("crash")
            replace(src, dst)

        monkeypatch.setattr("bilin.io.os.replace", crash_on_second)
        with pytest.raises(OSError, match="crash"):
            with Outputs(tmp_path) as out:
                for name in names:
                    out.path(name).write_text("new")
                out.commit()
        # a.csv is new and b.csv old: no run_config.txt claims the mix finished
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
        assert (tmp_path / "a.csv").read_text() == "new"

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failure_removes_temporaries_and_made_directories(self, tmp_path, error):
        with pytest.raises(error):
            with Outputs(tmp_path / "a" / "b") as out:
                out.path("one.txt").write_text("1")
                out.path("two.txt")  # named, never written
                raise error
        assert list(tmp_path.iterdir()) == []

    def test_never_deletes_a_directory_that_existed(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "previous.txt").write_text("previous")
        for out_dir in (tmp_path / "old", tmp_path / "old" / "new", tmp_path / "kept"):
            with pytest.raises(ValueError):
                with Outputs(out_dir) as out:
                    out.path("previous.txt").write_text("new")
                    raise ValueError
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "old"]
        assert list((tmp_path / "old").iterdir()) == []
        assert [p.name for p in (tmp_path / "kept").iterdir()] == ["previous.txt"]
        assert (tmp_path / "kept" / "previous.txt").read_text() == "previous"

    def test_commit_replaces_the_owned_files_as_a_set(self, tmp_path):
        for name in ("c_1.csv", "c_2.csv", "c_x.csv", "notes.txt"):
            (tmp_path / name).write_text("old")
        with pytest.raises(ValueError):
            with Outputs(tmp_path, owns=r"c_\d\.csv") as out:
                out.path("c_1.csv").write_text("new")
                raise ValueError
        assert len(list(tmp_path.iterdir())) == 4  # a failed run removes nothing
        with Outputs(tmp_path, owns=r"c_\d\.csv") as out:
            out.path("c_1.csv").write_text("new")
            out.commit()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c_1.csv", "c_x.csv", "notes.txt"]
        assert (tmp_path / "c_1.csv").read_text() == "new"

    def test_nothing_named_makes_no_directory(self, tmp_path):
        with Outputs(tmp_path / "a") as out:
            out.commit()
        assert list(tmp_path.iterdir()) == []


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
