import hashlib
import io
import json
import os
import shutil
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import score_matrix_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bilin import cli, evaluate, finetune, protocol, svm
from bilin.cli import ENCODE_CHUNK_BYTES, build_parser, main
from bilin.encoder import encode, pool_rows
from bilin.errors import CorruptFileError, FormatError, NumericError
from bilin.extractor import ingest_patch, init_conv_params
from bilin.finetune import TrainConfig, finetune_softmax, init_softmax_head
from bilin.io import (StoreReader, StoreWriter, load_feature_map, load_gallery, load_store,
                      read_feature_map, save_feature_map)
from bilin.protocol import read_metadata

SYNTH_FLAGS = [
    "--identities", "4", "--templates", "3", "--media", "2",
    "--map-dims", "6x6x4", "--impostor-fraction", "0.3",
    "--noise-sigma", "0.1", "--splits", "1", "--seed", "11",
]


def synth(tmp_path, name="data", extra=()):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), *SYNTH_FLAGS, *extra]) == 0
    return out


def tree_hash(root):
    """Hash of the data payload; run_config.txt records the invocation
    (including paths) and legitimately differs between output dirs."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.name != "run_config.txt":
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def snapshot(root):
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


def overwrite_store(desc, row):
    """Replace every stored descriptor by ``row``, keeping the manifest."""
    n = len((desc / "manifest.csv").read_text().splitlines()) - 1
    np.save(desc / "descriptors.npy", np.tile(np.asarray(row, np.float32), (n, 1)))


def keep_rows(data, keep):
    """Rewrite ``data``'s metadata.csv with only the rows whose cells
    (split_index, role, template_id, subject_id, ...) ``keep`` accepts."""
    metadata = data / "metadata.csv"
    header, *rows = metadata.read_text().splitlines()
    kept = [row for row in rows if keep(row.split(","))]
    metadata.write_text("".join(line + "\n" for line in [header, *kept]))


def run_pipeline(tmp_path, tag, pooling="score", synth_extra=()):
    data = synth(tmp_path, f"data_{tag}", synth_extra)
    desc = tmp_path / f"desc_{tag}"
    models = tmp_path / f"models_{tag}"
    out = tmp_path / f"eval_{tag}"
    assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
    assert main(["train-gallery", "--data", str(data), "--descriptors",
                 str(desc), "--out", str(models)]) == 0
    assert main(["eval", "--data", str(data), "--descriptors", str(desc),
                 "--models", str(models), "--out", str(out),
                 "--pooling", pooling]) == 0
    return out / "summary.json"


class TestSynth:
    def test_writes_tree_and_provenance(self, tmp_path):
        out = synth(tmp_path)
        assert (out / "metadata.csv").exists()
        assert (out / "maps").is_dir()
        config = (out / "run_config.txt").read_text()
        assert "command=synth" in config and "seed=11" in config
        splits = read_metadata(out / "metadata.csv", check_files=True)
        assert len(splits) == 1

    def test_default_config_builds_ten_split_tree(self, tmp_path):
        out = tmp_path / "default"
        assert main(["synth", "--out", str(out)]) == 0
        splits = read_metadata(out / "metadata.csv")
        assert [s.split_index for s in splits] == list(range(1, 11))

    def test_same_seed_same_tree(self, tmp_path):
        a = synth(tmp_path, "a")
        b = synth(tmp_path, "b")
        assert tree_hash(a) == tree_hash(b)

    def test_invalid_impostor_fraction_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"),
                   "--impostor-fraction", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        a = synth(tmp_path, "a")
        monkeypatch.setenv("BILIN_SEED", "11")
        out = tmp_path / "env"
        rc = main(["synth", "--out", str(out), *SYNTH_FLAGS[:-2],
                   "--seed", "999"])
        assert rc == 0
        assert tree_hash(a) == tree_hash(out)
        config = (out / "run_config.txt").read_text()
        assert "seed=11" in config

    def test_non_integer_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BILIN_SEED", "not-a-number")
        assert main(["synth", "--out", str(tmp_path / "x"),
                     *SYNTH_FLAGS]) == 2
        assert "BILIN_SEED" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "identities=4\ntemplates=3\nmedia=2\nmap-dims=6x6x4\n"
            "impostor-fraction=0.3\nnoise-sigma=0.1\nsplits=1\nseed=999\n"
        )
        out = tmp_path / "cfgd"
        rc = main(["synth", "--out", str(out), "--config", str(cfg),
                   "--seed", "11"])
        assert rc == 0
        assert tree_hash(out) == tree_hash(synth(tmp_path, "plain"))

    # the mixing matrix of either would take 74.5 GiB of float64, and a map
    # of the first 7.1 PiB
    @pytest.mark.parametrize("dims", ["100000x100000x100000", "1x1x100000"])
    def test_map_dims_over_the_format_limit_exit_2_allocating_nothing(self, tmp_path,
                                                                       capsys, dims):
        out = tmp_path / "data"
        flags = [*SYNTH_FLAGS, "--map-dims", dims]
        tracemalloc.start()
        try:
            assert main(["synth", "--out", str(out), *flags]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert "config error" in err and dims in err
        assert "Traceback" not in err
        assert not out.exists()
        assert peak < 1 << 20, peak

    def test_malformed_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--config", str(cfg)]) == 2


class TestEncode:
    def test_descriptor_per_medium_in_manifest_order(self, tmp_path):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        splits = read_metadata(data / "metadata.csv")
        expected = [m.media_id for m in splits[0].all_media()]
        assert sorted(p.name for p in desc.iterdir()) == [
            "descriptors.npy", "manifest.csv", "run_config.txt"]
        lines = (desc / "manifest.csv").read_text().splitlines()
        assert lines == ["media_id", *expected]
        store = np.load(desc / "descriptors.npy")
        assert store.shape == (len(expected), 16) and store.dtype == np.float32
        first = load_store(desc, [expected[0]])[0]
        assert np.array_equal(first, store[0])
        assert abs(np.linalg.norm(first) - 1.0) < 1e-6

    def test_missing_metadata_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["encode", "--input", str(empty),
                     "--out", str(tmp_path / "d")]) == 2

    def test_rerun_without_force_is_noop(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        main(["encode", "--input", str(data), "--out", str(desc)])
        before = tree_hash(desc)
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        assert "skipping" in capsys.readouterr().out
        assert tree_hash(desc) == before

    def test_force_reencodes(self, tmp_path):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        main(["encode", "--input", str(data), "--out", str(desc)])
        assert main(["encode", "--input", str(data), "--out", str(desc),
                     "--force"]) == 0

    def test_threads_option_is_gone(self, tmp_path):
        data = synth(tmp_path)
        assert main(["encode", "--input", str(data), "--out",
                     str(tmp_path / "d"), "--threads", "2"]) == 2
        assert not (tmp_path / "d").exists()

    def test_check_files_catches_missing_map(self, tmp_path, capsys):
        data = synth(tmp_path)
        next((data / "maps").glob("*.bfm")).unlink()
        rc = main(["encode", "--input", str(data), "--out",
                   str(tmp_path / "d"), "--check-files"])
        assert rc == 3
        assert "missing" in capsys.readouterr().err

    def test_corrupt_map_summarized_as_io_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        victim = next((data / "maps").glob("*.bfm"))
        victim.write_bytes(b"BAD!" + victim.read_bytes()[4:])
        rc = main(["encode", "--input", str(data),
                   "--out", str(tmp_path / "d")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "1 of" in err and "failed" in err

    def test_failed_encode_writes_nothing_and_reruns_fail(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        victim = next((data / "maps").glob("*.bfm"))
        victim.write_bytes(victim.read_bytes()[:-4])
        # --force drops the old manifest, so the plain rerun cannot skip
        for extra in (["--force"], []):
            assert main(["encode", "--input", str(data), "--out", str(desc),
                         *extra]) == 3
            assert not (desc / "manifest.csv").exists()
        assert "skipping" not in capsys.readouterr().out

    def test_mixed_descriptor_dims_exit_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        victim = next((data / "maps").glob("*.bfm"))
        save_feature_map(victim, np.ones((6, 6, 3)), rectified=True)
        rc = main(["encode", "--input", str(data), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_failed_or_interrupted_encode_leaves_no_temporary(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        before = (desc / "descriptors.npy").read_bytes()
        victim = next((data / "maps").glob("*.bfm"))
        good_map = victim.read_bytes()
        victim.write_bytes(good_map[:-4])
        assert main(["encode", "--input", str(data), "--out", str(desc), "--force"]) == 3
        assert (desc / "descriptors.npy").read_bytes() == before
        save_feature_map(victim, np.ones((6, 6, 3)), rectified=True)
        assert main(["encode", "--input", str(data), "--out", str(tmp_path / "d")]) == 2
        victim.write_bytes(good_map)

        staged = []

        def interrupted(store, rows):
            write(store, rows)
            staged.extend(tmp_path.rglob("*.tmp"))
            raise KeyboardInterrupt  # after a chunk's rows are staged

        write = StoreWriter.write
        monkeypatch.setattr(StoreWriter, "write", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["encode", "--input", str(data), "--out", str(tmp_path / "new" / "d")])
        assert staged
        assert not (tmp_path / "new").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @staticmethod
    def media_of(data):
        return [m for s in read_metadata(data / "metadata.csv") for m in s.all_media()]

    @staticmethod
    def record_encode(monkeypatch, encoding=True):
        """Chunk shapes passed to the pooling product, which pools them or
        stands zero rows in for their pooled matrices."""
        chunks = []

        def recorded(maps):
            chunks.append(maps.shape)
            return pool_rows(maps) if encoding else np.zeros((len(maps), maps.shape[-1] ** 2))

        monkeypatch.setattr("bilin.cli.pool_rows", recorded)
        return chunks

    def test_chunks_follow_shape_runs_and_budget(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        media = self.media_of(data)
        # one C, so one descriptor dim; runs of each H x W, some past a chunk's room
        shapes = [(6, 6, 4), (5, 7, 4), (3, 3, 4)]
        pattern = [0, 0, 1, 2, 2, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 0, 1, 2]
        rng = np.random.default_rng(5)
        for m, k in zip(media, pattern, strict=True):
            save_feature_map(data / m.path, rng.random(shapes[k]), rectified=True)
        budget = 8 * 6 * 6 * 4 * 3
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", budget)
        expected = []  # [shape, maps] of each chunk
        for k in pattern:
            h, w, c = shapes[k]
            room = max(1, budget // (8 * max(h * w * c, c * c)))
            if expected and expected[-1][0] == shapes[k] and expected[-1][1] < room:
                expected[-1][1] += 1
            else:
                expected.append([shapes[k], 1])
        chunks = self.record_encode(monkeypatch)
        desc = tmp_path / "desc"
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        assert chunks == [(n, *shape) for shape, n in expected]
        assert len(chunks) == 13 and max(n for n, *_ in chunks) == 5
        rows = np.float32([encode(load_feature_map(data / m.path).values) for m in media])
        stored = (desc / "descriptors.npy").read_bytes()
        assert stored[-rows.nbytes:] == rows.astype("<f4").tobytes()
        assert len(stored) == 128 + rows.nbytes  # the version 1.0 header
        assert (desc / "manifest.csv").read_text().split() == [
            "media_id", *(m.media_id for m in media)]

    @staticmethod
    def spoil(data, media, faults):
        """Write a truncated, a non-finite or a negative rectified map for
        the medium at each position of ``faults``."""
        for position, fault in faults.items():
            path = data / media[position].path
            values = np.ones((6, 6, 4), dtype="<f4")
            values[1, 2, 3] = {"truncated": 1.0, "nan": np.nan, "negative": -1.0}[fault]
            payload = values.tobytes()[:-4 if fault == "truncated" else None]
            path.write_bytes(b"BFM1" + struct.pack("<IIIB3x", 6, 6, 4, 1) + payload)

    def expected_failures(self, data, media, positions):
        lines = []
        for position in sorted(positions):
            with pytest.raises((FormatError, NumericError)) as info:
                load_feature_map(data / media[position].path)
            lines.append(f"  {media[position].media_id}: {info.value}")
        return lines

    def test_one_chunk_lists_every_fault_in_metadata_order(self, tmp_path, capsys,
                                                           monkeypatch):
        data = synth(tmp_path)
        media = self.media_of(data)
        assert len(media) * 8 * 6 * 6 * 4 <= ENCODE_CHUNK_BYTES  # one chunk holds them all
        faults = {9: "negative", 2: "nan", 5: "truncated"}
        self.spoil(data, media, faults)
        expected = self.expected_failures(data, media, faults)
        assert ["payload holds 143" in expected[1], "non-finite" in expected[0],
                "negative entries" in expected[2]] == [True] * 3
        chunks = self.record_encode(monkeypatch)
        assert main(["encode", "--input", str(data), "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"encode: 3 of {len(media)} media failed, nothing written:", *expected]
        assert chunks == []  # a failed chunk is not encoded
        assert not (tmp_path / "d").exists()

    def test_nonzero_reserved_bytes_fail_the_map(self, tmp_path, capsys, monkeypatch):
        data = synth(tmp_path)
        media = self.media_of(data)
        path = data / media[4].path
        header = bytearray(path.read_bytes())
        header[18] = 1
        path.write_bytes(bytes(header))
        expected = self.expected_failures(data, media, [4])
        assert "reserved header bytes 00 01 00" in expected[0]
        chunks = self.record_encode(monkeypatch)
        assert main(["encode", "--input", str(data), "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"encode: 1 of {len(media)} media failed, nothing written:", *expected]
        assert not (tmp_path / "d").exists()

    def test_chunks_after_a_failure_are_checked_not_encoded(self, tmp_path, capsys,
                                                           monkeypatch):
        data = synth(tmp_path)
        media = self.media_of(data)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 3)
        faults = {10: "nan", 22: "negative"}
        self.spoil(data, media, faults)
        chunks = self.record_encode(monkeypatch, encoding=False)
        assert main(["encode", "--input", str(data), "--out", str(tmp_path / "d")]) == 3
        assert capsys.readouterr().err.splitlines()[1:] == self.expected_failures(
            data, media, faults)
        assert chunks == [(3, 6, 6, 4)] * 3  # the chunks before the one at position 10
        assert not (tmp_path / "d").exists()

    def test_peak_memory_does_not_grow_with_media_count(self, tmp_path):
        dim = 128 * 128
        peaks = []
        for media in (2, 8):  # 24 and 96 media
            data = synth(tmp_path, f"data{media}", ["--media", str(media),
                                                   "--map-dims", "2x2x128"])
            tracemalloc.start()
            try:
                assert main(["encode", "--input", str(data),
                             "--out", str(tmp_path / f"desc{media}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the larger run holds less than one more float64 descriptor
        assert peaks[1] - peaks[0] < 8 * dim, peaks


class TestEncodePipeline:
    """With a core to spare, encode pools each large chunk on a thread of
    its own while the main thread reads the next chunk and finishes the
    last; without one it pools and writes each chunk in turn.  Every test
    runs both ways, every chunk counting as large when a core is spare."""

    @pytest.fixture(autouse=True, params=[True, False], ids=["overlap", "in_turn"])
    def overlap(self, request, monkeypatch):
        monkeypatch.setattr("bilin.cli._spare_core", lambda: request.param)
        monkeypatch.setattr("bilin.cli.POOL_THREAD_MACS", 0)
        run = cli._Product.run

        def lingering(product):
            # a thread left unjoined is still alive when encode returns
            run(product)
            time.sleep(0.01)

        monkeypatch.setattr(cli._Product, "run", lingering)
        return request.param

    @staticmethod
    def encode_run(data, out, expected_code):
        """Run encode, checking that it leaves no thread and no temporary."""
        threads = threading.active_count()
        try:
            assert main(["encode", "--input", str(data), "--out", str(out)]) == expected_code
        finally:
            assert threading.active_count() == threads
            assert not list(Path(data).parent.rglob("*.tmp"))

    @staticmethod
    def per_map_rows(data):
        media = TestEncode.media_of(data)
        return np.float32([encode(load_feature_map(data / m.path).values) for m in media])

    def test_success_joins_the_worker(self, tmp_path):
        data = synth(tmp_path)
        self.encode_run(data, tmp_path / "d", 0)

    def test_corrupt_map_joins_the_worker(self, tmp_path, monkeypatch, capsys):
        data = synth(tmp_path)
        # in the last chunk, read while the chunk before it is pooled
        victim = data / TestEncode.media_of(data)[-1].path
        victim.write_bytes(victim.read_bytes()[:-4])
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 3)
        chunks = TestEncode.record_encode(monkeypatch)
        self.encode_run(data, tmp_path / "d", 3)
        assert "1 of" in capsys.readouterr().err
        assert chunks == [(3, 6, 6, 4)] * 7
        assert not (tmp_path / "d").exists()

    def test_mixed_dims_join_the_worker(self, tmp_path, monkeypatch, capsys, overlap):
        data = synth(tmp_path)
        media = TestEncode.media_of(data)
        # a chunk of its own, found while the next chunk's product is in flight
        save_feature_map(data / media[10].path, np.ones((6, 6, 3)), rectified=True)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 3)
        chunks = TestEncode.record_encode(monkeypatch)
        self.encode_run(data, tmp_path / "d", 2)
        # in turn, the mixed dim is found before the next chunk is pooled
        assert chunks == ([(3, 6, 6, 4)] * 3 + [(1, 6, 6, 4), (1, 6, 6, 3)]
                          + [(3, 6, 6, 4)] * overlap)
        assert "one descriptor dim" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_memory_error_in_the_product_exits_2_on_the_main_thread(self, tmp_path, monkeypatch,
                                                                    capsys, overlap):
        data = synth(tmp_path)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 3)
        threads = []

        def out_of_memory(maps):
            threads.append(threading.current_thread())
            if len(threads) == 3:
                raise MemoryError
            return pool_rows(maps)

        monkeypatch.setattr("bilin.cli.pool_rows", out_of_memory)
        self.encode_run(data, tmp_path / "d", 2)
        err = capsys.readouterr().err
        assert "out of memory" in err and "Traceback" not in err
        assert len(threads) == 3  # no chunk is pooled after the failed one
        assert (threading.main_thread() in threads) != overlap
        assert not (tmp_path / "d").exists()

    def test_interrupted_write_joins_the_worker(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 3)
        write = StoreWriter.write

        def interrupted(store, rows):
            write(store, rows)
            raise KeyboardInterrupt  # while the next chunk's product is in flight

        monkeypatch.setattr(StoreWriter, "write", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.encode_run(data, tmp_path / "d", None)
        assert not (tmp_path / "d").exists()

    def test_values_are_checked_once_per_chunk(self, tmp_path, monkeypatch):
        data = synth(tmp_path)

        def second_check(*args, **kwargs):
            raise AssertionError("encode's own check ran on the CLI path")

        monkeypatch.setattr("bilin.encoder._as_map", second_check)
        self.encode_run(data, tmp_path / "d", 0)

    # 24 maps of 6x6x4: one chunk of all, two of 12 and one chunk per map
    @pytest.mark.parametrize("budget", [ENCODE_CHUNK_BYTES, 8 * 6 * 6 * 4 * 12, 1])
    def test_rows_equal_per_map_encode(self, tmp_path, monkeypatch, budget):
        data = synth(tmp_path)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", budget)
        chunks = TestEncode.record_encode(monkeypatch)
        self.encode_run(data, tmp_path / "d", 0)
        assert len(chunks) == {ENCODE_CHUNK_BYTES: 1, 8 * 6 * 6 * 4 * 12: 2, 1: 24}[budget]
        rows = self.per_map_rows(data)
        assert (tmp_path / "d" / "descriptors.npy").read_bytes()[128:] == rows.tobytes()

    def test_only_large_chunks_are_pooled_on_a_thread(self, tmp_path, monkeypatch, overlap):
        data = synth(tmp_path)
        media = TestEncode.media_of(data)
        rng = np.random.default_rng(4)
        for m in media[:3]:
            save_feature_map(data / m.path, rng.random((5, 7, 4)), rectified=True)
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 8 * 6 * 6 * 4 * 5)
        monkeypatch.setattr("bilin.cli.POOL_THREAD_MACS", 5 * 6 * 6 * 4 * 4)
        pooled_by = []

        def recorded(maps):
            pooled_by.append((len(maps), threading.current_thread() is threading.main_thread()))
            return pool_rows(maps)

        monkeypatch.setattr("bilin.cli.pool_rows", recorded)
        self.encode_run(data, tmp_path / "d", 0)
        # 3 maps of 5x7x4 and the last single map fall below the threshold
        assert pooled_by == [(3, True)] + [(5, not overlap)] * 4 + [(1, True)]
        rows = self.per_map_rows(data)
        assert (tmp_path / "d" / "descriptors.npy").read_bytes()[128:] == rows.tobytes()

    def test_rows_hold_under_a_short_switch_interval(self, tmp_path, monkeypatch):
        # the main thread may not finish a chunk's rows while its product
        # still runs, however often the threads switch
        data = synth(tmp_path, extra=("--map-dims", "27x27x128"))
        monkeypatch.setattr("bilin.cli.ENCODE_CHUNK_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.encode_run(data, tmp_path / "d", 0)
        finally:
            sys.setswitchinterval(interval)
        rows = self.per_map_rows(data)
        assert (tmp_path / "d" / "descriptors.npy").read_bytes()[128:] == rows.tobytes()

    def test_rows_equal_per_map_encode_across_a_shape_change(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        media = TestEncode.media_of(data)
        rng = np.random.default_rng(3)
        for m in media[10:]:
            save_feature_map(data / m.path, rng.random((5, 7, 4)), rectified=True)
        chunks = TestEncode.record_encode(monkeypatch)
        self.encode_run(data, tmp_path / "d", 0)
        assert chunks == [(10, 6, 6, 4), (14, 5, 7, 4)]
        rows = self.per_map_rows(data)
        assert (tmp_path / "d" / "descriptors.npy").read_bytes()[128:] == rows.tobytes()



class TestSpareCore:
    """Encode overlaps only when BLAS's threads, as OpenBLAS reads them
    from the environment, leave a core free."""

    @pytest.mark.parametrize("env, cores, spare", [
        ({}, 2, False),  # one BLAS thread per core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OMP_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "x"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, True),
    ])
    def test_spare_core(self, monkeypatch, env, cores, spare):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert cli._spare_core() is spare


class TestMetadata:
    @pytest.mark.parametrize("stage", ["encode", "train-gallery", "eval", "finetune"])
    def test_non_utf8_metadata_exits_3(self, tmp_path, capsys, stage):
        data = synth(tmp_path)
        with open(data / "metadata.csv", "ab") as f:
            f.write(b"\xff")
        paths = {"encode": ["--input", str(data)], "train-gallery": [
            "--data", str(data), "--descriptors", str(tmp_path / "desc")],
            "eval": ["--data", str(data), "--descriptors", str(tmp_path / "desc"),
                     "--models", str(tmp_path / "models")],
            "finetune": ["--data", str(data)]}
        assert main([stage, *paths[stage], "--out", str(tmp_path / "out")]) == 3
        assert "metadata.csv: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [["encode", "--input"], ["encode", "--check-files", "--input"],
                                       ["finetune", "--data"]])
    def test_row_without_path_cell_exits_3(self, tmp_path, capsys, stage):
        data = synth(tmp_path, extra=("--templates", "6"))  # with train templates
        metadata = data / "metadata.csv"
        lines = metadata.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if ",train," in line)
        lines[i] = lines[i].rsplit(",", 1)[0]
        metadata.write_text("".join(line + "\n" for line in lines))
        assert main([*stage, str(data), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{metadata}:{i + 1}: row has fewer cells than the header" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def inputs(tmp_path, data, stage):
        """The input flags of ``stage``, with inputs past the metadata absent."""
        return {"encode": ["--input", str(data)], "train-gallery": [
            "--data", str(data), "--descriptors", str(tmp_path / "desc")],
            "eval": ["--data", str(data), "--descriptors", str(tmp_path / "desc"),
                     "--models", str(tmp_path / "models")],
            "finetune": ["--data", str(data)]}[stage]

    @pytest.mark.parametrize("stage", ["encode", "train-gallery", "eval", "finetune"])
    def test_cell_over_the_csv_field_limit_exits_3(self, tmp_path, capsys, stage):
        data = synth(tmp_path)
        metadata = data / "metadata.csv"
        lines = metadata.read_text().splitlines()
        lines[2] += "x" * (1 << 17)
        metadata.write_text("".join(line + "\n" for line in lines))
        assert main([stage, *self.inputs(tmp_path, data, stage),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{metadata}:3: field larger than field limit" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", [["encode", "--input"], ["encode", "--check-files", "--input"],
                                       ["finetune", "--data"]])
    def test_path_with_a_nul_byte_exits_3(self, tmp_path, capsys, stage):
        data = synth(tmp_path, extra=("--templates", "6"))  # with train templates
        metadata = data / "metadata.csv"
        lines = metadata.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if ",train," in line)
        lines[i] += "\0"
        metadata.write_text("".join(line + "\n" for line in lines))
        assert main([*stage, str(data), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{metadata}:{i + 1}: path " in err and "holds a NUL byte" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTrainGallery:
    def test_writes_models_per_split(self, tmp_path):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        models = tmp_path / "models"
        main(["encode", "--input", str(data), "--out", str(desc)])
        assert main(["train-gallery", "--data", str(data), "--descriptors",
                     str(desc), "--out", str(models)]) == 0
        gallery = load_gallery(models / "gallery_s01.bgm")
        assert gallery.descriptor_dim == 16
        assert len(gallery.identity_ids) == 3  # 4 identities, 1 impostor

    def test_missing_descriptors_exits_2_with_hint(self, tmp_path, capsys):
        data = synth(tmp_path)
        rc = main(["train-gallery", "--data", str(data), "--descriptors",
                   str(tmp_path / "nowhere"), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "bilin encode" in capsys.readouterr().err

    def test_split_without_gallery_exits_2_writing_nothing(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc, models = tmp_path / "desc", tmp_path / "models"
        assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
        keep_rows(data, lambda cells: cells[1] != "gallery")
        assert main(["train-gallery", "--data", str(data), "--descriptors", str(desc),
                     "--out", str(models)]) == 2
        assert "split 1 has no gallery templates" in capsys.readouterr().err
        assert not models.exists()

class TestEval:
    def test_summary_shape_and_outputs(self, tmp_path):
        summary_path = run_pipeline(tmp_path, "main")
        summary = json.loads(summary_path.read_text())
        assert set(summary) == {"splits", "mean", "std"}
        for block in (summary["mean"], summary["std"],
                      summary["splits"]["1"]):
            assert set(block) == {"rank1", "rank5", "fnir_at_fpir_0.1",
                                  "fnir_at_fpir_0.01"}
        out_dir = summary_path.parent
        assert (out_dir / "cmc_s01.csv").exists()
        assert (out_dir / "det_s01.csv").exists()
        assert (out_dir / "run_config.txt").exists()

    def test_rerun_on_fewer_splits_removes_their_curves(self, tmp_path):
        summary_path = run_pipeline(tmp_path, "three", synth_extra=("--splits", "3"))
        res = summary_path.parent
        (res / "notes.txt").write_text("kept\n")
        split_1 = {name: (res / name).read_bytes() for name in ("cmc_s01.csv", "det_s01.csv")}
        assert (res / "det_s03.csv").exists()
        assert main(["eval", "--data", str(tmp_path / "data_three"),
                     "--descriptors", str(tmp_path / "desc_three"),
                     "--models", str(tmp_path / "models_three"), "--out", str(res),
                     "--split", "1"]) == 0
        assert sorted(p.name for p in res.iterdir()) == [
            "cmc_s01.csv", "det_s01.csv", "notes.txt", "run_config.txt", "summary.json"]
        assert {name: (res / name).read_bytes() for name in split_1} == split_1
        assert list(json.loads(summary_path.read_text())["splits"]) == ["1"]

    def test_missing_models_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        main(["encode", "--input", str(data), "--out", str(desc)])
        rc = main(["eval", "--data", str(data), "--descriptors", str(desc),
                   "--models", str(tmp_path / "none"),
                   "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "train-gallery" in capsys.readouterr().err

    def test_descriptor_dim_mismatch_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        models = tmp_path / "models"
        main(["encode", "--input", str(data), "--out", str(desc)])
        main(["train-gallery", "--data", str(data), "--descriptors",
              str(desc), "--out", str(models)])
        overwrite_store(desc, np.full(9, 1.0 / 3.0))
        capsys.readouterr()
        rc = main(["eval", "--data", str(data), "--descriptors", str(desc),
                   "--models", str(models), "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "9" in err and "16" in err

    def test_invalid_gallery_values_exit_3(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        models = tmp_path / "models"
        main(["encode", "--input", str(data), "--out", str(desc)])
        main(["train-gallery", "--data", str(data), "--descriptors",
              str(desc), "--out", str(models)])
        path = models / "gallery_s01.bgm"
        data_bytes = bytearray(path.read_bytes())
        # the first model's rescale_a sits 8 bytes before its record ends
        id_len = struct.unpack_from("<H", data_bytes, 12)[0]
        end = 12 + 2 + id_len + 4 * 16 + 12
        struct.pack_into("<f", data_bytes, end - 8, 0.0)
        path.write_bytes(bytes(data_bytes))
        rc = main(["eval", "--data", str(data), "--descriptors", str(desc),
                   "--models", str(models), "--out", str(tmp_path / "e")])
        assert rc == 3
        assert "rescale_a" in capsys.readouterr().err

    def test_singleton_templates_pool_identically(self, tmp_path):
        extra = ("--media", "1")
        score = run_pipeline(tmp_path, "sc", "score", extra)
        feature = run_pipeline(tmp_path, "ft", "feature", extra)
        assert score.read_bytes() == feature.read_bytes()

    def test_peak_memory_does_not_grow_with_probe_count(self, tmp_path):
        dim = 128 * 128
        peaks = []
        for media in (2, 8):  # 24 and 96 media
            data = synth(tmp_path, f"data{media}", ["--media", str(media),
                                                   "--map-dims", "2x2x128"])
            desc, models = tmp_path / f"desc{media}", tmp_path / f"models{media}"
            assert main(["encode", "--input", str(data), "--out", str(desc)]) == 0
            assert main(["train-gallery", "--data", str(data), "--descriptors", str(desc),
                         "--out", str(models)]) == 0
            tracemalloc.start()
            try:
                assert main(["eval", "--data", str(data), "--descriptors", str(desc),
                             "--models", str(models), "--out", str(tmp_path / f"res{media}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the larger run holds less than one more block: a template's float32 rows
        assert peaks[1] - peaks[0] < 8 * 4 * dim, peaks

    def test_degenerate_training_data_exits_4(self, tmp_path, capsys):
        data = synth(tmp_path)
        desc = tmp_path / "desc"
        main(["encode", "--input", str(data), "--out", str(desc)])
        # make every descriptor identical: no classifier can separate
        overwrite_store(desc, np.ones(16) / 4.0)
        rc = main(["train-gallery", "--data", str(data), "--descriptors",
                   str(desc), "--out", str(tmp_path / "m")])
        assert rc == 4
        assert "numeric" in capsys.readouterr().err


class TestFinetuneCommand:
    def test_trains_and_writes_artifacts(self, tmp_path):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5",
                                      "--impostor-fraction", "0.2"))
        out = tmp_path / "ft"
        rc = main(["finetune", "--data", str(data), "--out", str(out),
                   "--epochs", "2", "--batch-size", "2", "--seed", "1"])
        assert rc == 0
        trace = json.loads((out / "loss_trace.json").read_text())
        assert len(trace) == 3
        classes = json.loads((out / "classes.json").read_text())
        assert len(classes) >= 2
        kernel = np.load(out / "extractor_kernel.npy")
        assert kernel.shape == (3, 3, 4, 4)
        weights = np.load(out / "head_weights.npy")
        assert weights.shape == (len(classes), 16)

    def test_no_train_templates_exits_2(self, tmp_path):
        # 2 templates per identity: 1 gallery + 1 probe, none for train
        data = synth(tmp_path, extra=("--templates", "2"))
        rc = main(["finetune", "--data", str(data),
                   "--out", str(tmp_path / "ft")])
        assert rc == 2

    def test_one_train_identity_exits_2_writing_nothing(self, tmp_path, capsys):
        data = synth(tmp_path, extra=("--templates", "6"))
        keep_rows(data, lambda cells: cells[1] != "train" or cells[3].endswith("id000"))
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out)]) == 2
        assert "fine-tuning needs at least 2 train identities" in capsys.readouterr().err
        assert not out.exists()

    # a head width of 16385**2, or a 4097x4097x4x4 kernel, is one value past
    # the .bfm limit of 2**28; the head would take classes x 2 GiB of float64
    @pytest.mark.parametrize("flags", [["--out-channels", "16385"],
                                       ["--kernel-size", "4097"]])
    def test_model_over_the_format_limit_exits_2_allocating_nothing(
            self, tmp_path, capsys, monkeypatch, flags):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5",
                                      "--impostor-fraction", "0.2"))

        def forbidden(*args, **kwargs):
            raise AssertionError("a model past the bound was made")

        monkeypatch.setattr(cli, "init_conv_params", forbidden)
        monkeypatch.setattr(cli, "init_softmax_head", forbidden)
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and flags[1] in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--out-channels", "16384"],
                                       ["--kernel-size", "4096"]])
    def test_model_at_the_format_limit_passes_the_bound(self, tmp_path, monkeypatch, flags):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5",
                                      "--impostor-fraction", "0.2"))

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "init_conv_params", reached)
        with pytest.raises(Reached):
            main(["finetune", "--data", str(data), "--out", str(tmp_path / "ft"), *flags])

    def test_out_of_memory_exits_2_without_a_traceback(self, tmp_path, capsys,
                                                       monkeypatch):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5",
                                      "--impostor-fraction", "0.2"))

        def too_large(*args, **kwargs):
            raise MemoryError  # as a head of classes x 2 GiB would

        monkeypatch.setattr(cli, "init_softmax_head", too_large)
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out),
                     "--out-channels", "16384"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bilin:") and "memory" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_outputs_equal_finetune_softmax_on_ingested_patches(self, tmp_path,
                                                                monkeypatch):
        # 32 train maps of 6x6x4, which run many to a chunk
        data = synth(tmp_path, extra=("--templates", "11", "--identities", "5",
                                      "--impostor-fraction", "0.2", "--media", "4"))
        (split,) = read_metadata(data / "metadata.csv")
        train = [m for t in sorted(split.train, key=lambda t: t.template_id)
                 for m in t.media]
        assert len(train) == 32
        rng = np.random.default_rng(3)
        # a constant map, and a 40x40x4 one that runs alone amid the small ones
        save_feature_map(data / train[0].path, np.full((6, 6, 4), 0.7, np.float32))
        save_feature_map(data / train[13].path, rng.random((40, 40, 4)))
        out = tmp_path / "ft"
        flags = ["--epochs", "3", "--batch-size", "16", "--seed", "2", "--dropout", "0.25"]
        formed, scale_patches = [], finetune.scale_patches

        def recorded(values, lo, span):
            formed.append(np.shape(values))
            return scale_patches(values, lo, span)

        monkeypatch.setattr(finetune, "scale_patches", recorded)
        assert main(["finetune", "--data", str(data), "--out", str(out), *flags]) == 0
        assert (1, 40, 40, 4) in formed and max(s[0] for s in formed if len(s) == 4) > 8

        # the oracle: every map ingested up front into a list of float64 patches
        patches = [ingest_patch(load_feature_map(data / m.path).values) for m in train]
        subjects = [t.subject_id for t in sorted(split.train, key=lambda t: t.template_id)
                    for _ in t.media]
        classes = sorted(set(subjects))
        cfg = TrainConfig(epochs=3, batch_size=16, seed=2, dropout_rate=0.25)
        extractor, head, trace = finetune_softmax(
            init_conv_params(3, 4, 4, seed=2), init_softmax_head(len(classes), 16, seed=2),
            patches, [classes.index(s) for s in subjects], cfg)
        arrays = {"extractor_kernel.npy": extractor.kernel,
                  "extractor_bias.npy": extractor.bias,
                  "head_weights.npy": head.weights, "head_bias.npy": head.bias}
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.save(buffer, array)
            assert (out / name).read_bytes() == buffer.getvalue(), name
        assert (out / "classes.json").read_text() == json.dumps(classes) + "\n"
        assert (out / "loss_trace.json").read_text() == json.dumps(trace) + "\n"

    def test_peak_memory_grows_by_the_float32_map_per_train_map(self, tmp_path):
        n = 16 * 16 * 64
        peaks, train_maps = [], []
        for media in (2, 8):  # 8 and 32 train maps
            data = synth(tmp_path, f"data{media}", [
                "--templates", "6", "--identities", "5", "--impostor-fraction", "0.2",
                "--media", str(media), "--map-dims", "16x16x64"])
            (split,) = read_metadata(data / "metadata.csv")
            train_maps.append(sum(len(t.media) for t in split.train))
            tracemalloc.start()
            try:
                assert main(["finetune", "--data", str(data), "--out",
                             str(tmp_path / f"ft{media}"), "--epochs", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra = train_maps[1] - train_maps[0]
        assert extra == 24
        # per extra train map: its float32 values and its float64 range, plus
        # 4 KiB for its records (array header, list slots, metadata rows);
        # a float64 patch held per map would add 8 * n bytes
        assert peaks[1] - peaks[0] < extra * (4 * n + 16 + 4096), peaks

    def test_peak_memory_does_not_grow_with_the_train_set(self, tmp_path):
        peaks, train_maps = [], []
        for media in (2, 8):  # 8 and 32 train maps of 16x16x64, 64 KiB each
            data = synth(tmp_path, f"data{media}", [
                "--templates", "6", "--identities", "5", "--impostor-fraction", "0.2",
                "--media", str(media), "--map-dims", "16x16x64"])
            (split,) = read_metadata(data / "metadata.csv")
            train_maps.append(sum(len(t.media) for t in split.train))
            # the smaller peak of two runs: a run's window can take in a
            # resize of the interpreter's table of interned strings (over
            # 1 MiB in one block), which comes round only after tens of
            # thousands of new strings, so at most once in two runs
            runs = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    assert main(["finetune", "--data", str(data), "--out",
                                 str(tmp_path / f"ft{media}"), "--epochs", "1"]) == 0
                    runs.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(min(runs))
        extra = train_maps[1] - train_maps[0]
        assert extra == 24
        # per extra train map only its records (path, header, range, metadata
        # rows); holding its float32 values would add 64 KiB
        assert peaks[1] - peaks[0] < extra * 4096, peaks

    def test_lists_every_bad_train_map_in_metadata_order(self, tmp_path, capsys):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5"))
        (split,) = read_metadata(data / "metadata.csv")
        train = [m for t in sorted(split.train, key=lambda t: t.template_id) for m in t.media]
        assert len(train) >= 6
        # the cut map is found when it is read, before its chunk's values are
        # checked, so the lines come out of order unless they are sorted
        nan, cut = train[1], train[5]
        values = np.ones((6, 6, 4), dtype=np.float32)
        values[2, 3, 1] = np.nan
        header = b"BFM1" + struct.pack("<IIIB3x", 6, 6, 4, 0)
        (data / nan.path).write_bytes(header + values.tobytes())
        (data / cut.path).write_bytes(header + values.tobytes()[:-4])
        lines = []
        for medium in (nan, cut):
            with pytest.raises((FormatError, NumericError)) as info:
                load_feature_map(data / medium.path)
            lines.append(f"  {medium.media_id}: {info.value}")
        assert "non-finite" in lines[0] and "payload holds 143" in lines[1]
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"finetune: 2 of {len(train)} train media failed, nothing written:", *lines]
        assert not out.exists()


    def test_lists_maps_with_nonzero_reserved_bytes_before_training(self, tmp_path,
                                                                     capsys, monkeypatch):
        data = synth(tmp_path, extra=("--templates", "6", "--identities", "5"))
        (split,) = read_metadata(data / "metadata.csv")
        train = [m for t in sorted(split.train, key=lambda t: t.template_id) for m in t.media]
        lines = []
        for medium in train:
            path = data / medium.path
            header = bytearray(path.read_bytes())
            header[18] = 0xff
            path.write_bytes(bytes(header))
            with pytest.raises(FormatError) as info:
                read_feature_map(path)
            lines.append(f"  {medium.media_id}: {info.value}")
        assert all("reserved header bytes 00 ff 00 are not zero" in line for line in lines)

        def untrained(*args):
            raise AssertionError("finetune trained on maps that failed")

        monkeypatch.setattr("bilin.cli.finetune_softmax", untrained)
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"finetune: {len(train)} of {len(train)} train media failed, nothing written:",
            *lines]
        assert not out.exists()


class TestPlot:
    def test_det_chart_marks_each_point(self, tmp_path):
        det = tmp_path / "det.csv"
        det.write_text("threshold,fpir,fnir\n0.5,0.4,0.1\n1.5,0.04,0.6\n")
        out = tmp_path / "plots"
        assert main(["plot", "--det", str(det), "--out", str(out)]) == 0
        svg_text = (out / "det.svg").read_text()
        assert svg_text.count('class="pt"') == 2
        assert "false positive identification rate" in svg_text

    def test_cmc_chart(self, tmp_path):
        cmc = tmp_path / "cmc.csv"
        cmc.write_text("rank,recall\n1,0.5\n2,0.75\n3,1.0\n")
        out = tmp_path / "plots"
        assert main(["plot", "--cmc", str(cmc), "--out", str(out)]) == 0
        assert (out / "cmc.svg").read_text().count('class="pt"') == 3

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["plot", "--det", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "p")]) == 3

    def test_no_inputs_exits_2(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "p")]) == 2

    @pytest.mark.parametrize("text, column", [
        ("step,recall\n1,0.5\n", "rank"),
        ("rank,recall\nabc,0.5\n", "rank"),
        ("rank,recall\n1,nan\n", "recall"),
        ("rank,recall\n1,\udcff\n", None),
    ], ids=["no-column", "text-cell", "nan-cell", "not-utf8"])
    def test_malformed_csv_exits_2_naming_file_and_column(self, tmp_path, capsys,
                                                          text, column):
        cmc = tmp_path / "odd.csv"
        cmc.write_text(text, errors="surrogateescape")  # \udcff: the byte ff
        assert main(["plot", "--cmc", str(cmc), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert "odd.csv" in err and (column is None or repr(column) in err)

    def test_cell_over_the_csv_field_limit_exits_2_naming_file(self, tmp_path, capsys):
        det = tmp_path / "det.csv"
        det.write_text("threshold,fpir,fnir\n0.5,0.4," + "1" * 140000 + "\n")
        out = tmp_path / "p"
        assert main(["plot", "--det", str(det), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "det.csv" in err and "field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_header_only_csv_exits_2_writing_nothing(self, tmp_path, capsys):
        cmc = tmp_path / "cmc.csv"
        cmc.write_text("rank,recall\n")
        out = tmp_path / "p"
        assert main(["plot", "--cmc", str(cmc), "--out", str(out)]) == 2
        assert f"{cmc}: no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_det_without_positive_fpir_exits_2_naming_file_and_column(self, tmp_path,
                                                                      capsys):
        det = tmp_path / "det.csv"
        det.write_text("threshold,fpir,fnir\n0.5,0.0,0.1\n1.5,0.0,0.6\n")
        out = tmp_path / "p"
        assert main(["plot", "--det", str(det), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "det.csv" in err and "'fpir'" in err
        assert not out.exists()


class TestDeterminism:
    def test_end_to_end_rerun_is_byte_identical(self, tmp_path):
        first = run_pipeline(tmp_path, "r1")
        second = run_pipeline(tmp_path, "r2")
        assert first.read_bytes() == second.read_bytes()


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["synth", "--bogus"]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Two splits with train templates, their descriptors, gallery models
    and evaluation, made once with default flags."""
    root = tmp_path_factory.mktemp("pipeline")
    p = SimpleNamespace(root=root, data=root / "data", desc=root / "desc",
                        models=root / "models", res=root / "res")
    assert main(["synth", "--out", str(p.data), *SYNTH_FLAGS, "--splits", "2",
                 "--templates", "6"]) == 0
    assert main(["encode", "--input", str(p.data), "--out", str(p.desc)]) == 0
    assert main(["train-gallery", "--data", str(p.data), "--descriptors",
                 str(p.desc), "--out", str(p.models)]) == 0
    assert main(["eval", "--data", str(p.data), "--descriptors", str(p.desc),
                 "--models", str(p.models), "--out", str(p.res)]) == 0
    return p


class TestEvalBlocks:
    """Eval reads each split's probe rows from the store a block of whole
    templates at a time, within evaluate.EVAL_BLOCK_BYTES."""

    @pytest.mark.parametrize("pooling", ["score", "feature"])
    def test_scores_and_outputs_do_not_depend_on_the_budget(self, pipeline, tmp_path,
                                                            monkeypatch, pooling):
        split_curves, read = evaluate.split_curves, StoreReader.read
        matrices, reads, outputs = [], [], []

        def kept(scores, templates, gallery, *args):
            matrices.append((scores, templates, gallery))
            return split_curves(scores, templates, gallery, *args)

        def counted(store, lo, hi):
            reads[-1] += 1
            return read(store, lo, hi)

        monkeypatch.setattr(evaluate, "split_curves", kept)
        monkeypatch.setattr(StoreReader, "read", counted)
        # one row, three rows (a template each: both hold 2 media), two
        # templates, and every row of a split
        for rows in (1, 3, 4, 10**6):
            monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", rows * 4 * 16)
            reads.append(0)
            out = tmp_path / f"rows{rows}"
            assert main([*stage_argv("eval", pipeline, out), "--pooling", pooling]) == 0
            outputs.append({name: data for name, data in snapshot(out).items()
                            if name != "run_config.txt"})
        assert all(out == outputs[0] for out in outputs)
        assert reads[0] == reads[1] > reads[2] > reads[3] == 2
        for scores, templates, gallery in matrices:
            ids = [m.media_id for t in templates for m in t.media]
            table = dict(zip(ids, load_store(pipeline.desc, ids)))
            expected = score_matrix_oracle(templates, gallery, table, pooling)
            assert np.array_equal(scores, expected)

    def test_dim_mismatch_exits_2_before_a_row_is_read(self, pipeline, tmp_path,
                                                       monkeypatch, capsys):
        desc = tmp_path / "desc"
        shutil.copytree(pipeline.desc, desc)
        overwrite_store(desc, np.full(9, np.nan))  # reading a row would exit 3
        reads = []
        monkeypatch.setattr(StoreReader, "read", lambda store, lo, hi: reads.append(lo))
        assert main(["eval", "--data", str(pipeline.data), "--descriptors", str(desc),
                     "--models", str(pipeline.models), "--out", str(tmp_path / "e")]) == 2
        assert "probe descriptor dim 9 != gallery dim 16" in capsys.readouterr().err
        assert reads == []

    def test_gallery_without_models_exits_2_writing_nothing(self, pipeline, tmp_path,
                                                           monkeypatch, capsys):
        models = tmp_path / "models"
        shutil.copytree(pipeline.models, models)
        # a .bgm header of 0 models of the probes' dim, 16
        (models / "gallery_s01.bgm").write_bytes(b"BGM1" + struct.pack("<II", 0, 16))
        reads = []
        monkeypatch.setattr(StoreReader, "read", lambda store, lo, hi: reads.append(lo))
        out = tmp_path / "e"
        assert main(["eval", "--data", str(pipeline.data), "--descriptors",
                     str(pipeline.desc), "--models", str(models), "--out", str(out)]) == 2
        assert "gallery model set is empty" in capsys.readouterr().err
        assert reads == [] and not out.exists()


def stage_argv(stage, p, out):
    """The stage's required flags over the ``pipeline`` fixture."""
    paths = {"synth": [], "plot": [], "encode": ["--input", p.data],
             "finetune": ["--data", p.data],
             "train-gallery": ["--data", p.data, "--descriptors", p.desc],
             "eval": ["--data", p.data, "--descriptors", p.desc, "--models", p.models]}
    return [stage, *map(str, paths[stage]), "--out", str(out)]


# A value other than the default for every option but the required paths.
CONFIG_VALUES = {
    "synth": {"identities": "4", "templates": "3", "media": "2", "map-dims": "6x6x4",
              "impostor-fraction": "0.3", "noise-sigma": "0.2", "seed": "11",
              "splits": "2"},
    "encode": {"check-files": "true", "force": "true"},
    "finetune": {"check-files": "true", "split": "2", "epochs": "2", "batch-size": "3",
                 "lr-lower": "0.002", "lr-last": "0.02", "decay-factor": "5.0",
                 "dropout": "0.25", "patience": "1", "kernel-size": "2",
                 "out-channels": "3", "seed": "5"},
    "train-gallery": {"check-files": "true", "split": "1", "reg-c": "2.0",
                      "epochs": "30", "balanced": "true", "seed": "3"},
    "eval": {"check-files": "true", "split": "1", "pooling": "feature",
             "fnir-rank1": "true", "max-rank": "2"},
    "plot": {"cmc": "res/cmc_s02.csv", "det": "res/det_s02.csv"},
}


class TestConfigFile:
    @pytest.mark.parametrize("stage", sorted(CONFIG_VALUES))
    def test_every_option_reads_as_its_flag(self, pipeline, tmp_path, stage):
        values = {k: str(pipeline.root / v) if stage == "plot" else v
                  for k, v in CONFIG_VALUES[stage].items()}
        declared = {a.dest.replace("_", "-") for a in build_parser()[1][stage]._actions
                    if a.option_strings and not a.required}
        assert declared - {"help", "config"} == set(values)
        flags = [a for k, v in values.items()
                 for a in ([f"--{k}"] if v == "true" else [f"--{k}", v])]
        cfg = tmp_path / "stage.cfg"
        # threads is no option of any stage: ignored
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()) + "threads=4\n")
        by_flag, by_file, replay = (tmp_path / n for n in ("flag", "file", "replay"))
        assert main([*stage_argv(stage, pipeline, by_flag), *flags]) == 0
        assert main([*stage_argv(stage, pipeline, by_file), "--config", str(cfg)]) == 0
        # run_config.txt reads back as a config file of the same run
        assert main([*stage_argv(stage, pipeline, replay), "--config",
                     str(by_flag / "run_config.txt")]) == 0
        recorded = (by_flag / "run_config.txt").read_text()
        for key in values:
            assert f"\n{key}=" in recorded
        for out in (by_file, replay):
            assert tree_hash(out) == tree_hash(by_flag)
            assert (out / "run_config.txt").read_text().replace(str(out), "OUT") == \
                recorded.replace(str(by_flag), "OUT")

    def test_split_and_switches_from_file(self, pipeline, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("split=1\nbalanced=true\nfnir-rank1=true\n")
        models, res = tmp_path / "models", tmp_path / "res"
        assert main([*stage_argv("train-gallery", pipeline, models),
                     "--config", str(cfg)]) == 0
        assert sorted(p.name for p in models.glob("*.bgm")) == ["gallery_s01.bgm"]
        assert "balanced=True" in (models / "run_config.txt").read_text()
        # the fixture's models hold both splits; eval must read split=1 itself
        assert main([*stage_argv("eval", pipeline, res), "--config", str(cfg)]) == 0
        assert list(json.loads((res / "summary.json").read_text())["splits"]) == ["1"]
        assert "fnir-rank1=True" in (res / "run_config.txt").read_text()

    def test_comment_and_blank_lines_are_skipped(self, pipeline, tmp_path):
        cfg = tmp_path / "c.txt"
        # read as a key, the commented line would be a bad value (exit 2)
        cfg.write_text("# epochs=abc\n\n   \nsplit=1\n")
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert main([*stage_argv("train-gallery", pipeline, by_flag), "--split", "1"]) == 0
        assert main([*stage_argv("train-gallery", pipeline, by_file),
                     "--config", str(cfg)]) == 0
        assert sorted(p.name for p in by_file.glob("*.bgm")) == ["gallery_s01.bgm"]
        assert "\nepochs=100\n" in (by_file / "run_config.txt").read_text()
        assert tree_hash(by_file) == tree_hash(by_flag)

    @pytest.mark.parametrize("stage, line", [
        ("train-gallery", "reg-c=abc"), ("train-gallery", "balanced=maybe"),
        ("eval", "pooling=bogus"), ("finetune", "epochs=1.5"), ("synth", "seed=x"),
        ("encode", "force="), ("synth", "seed=\udcff"),
    ], ids=["text-float", "maybe-switch", "no-choice", "float-int", "text-int",
            "empty-switch", "not-utf8"])
    def test_bad_value_for_known_key_exits_2(self, pipeline, tmp_path, capsys,
                                             stage, line):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n", errors="surrogateescape")  # \udcff: the byte ff
        out = tmp_path / "out"
        assert main([*stage_argv(stage, pipeline, out), "--config", str(cfg)]) == 2
        assert f"config key {line.split('=')[0]}" in capsys.readouterr().err
        assert not out.exists()


class TestEdgeValues:
    @pytest.mark.parametrize("stage, option, value", [
        ("eval", "--max-rank", "0"), ("eval", "--max-rank", "-3"),
        ("train-gallery", "--reg-c", "0"), ("train-gallery", "--reg-c", "nan"),
        ("train-gallery", "--reg-c", "inf"), ("train-gallery", "--epochs", "0"),
        ("finetune", "--kernel-size", "0"), ("finetune", "--kernel-size", "-1"),
        ("finetune", "--out-channels", "0"), ("finetune", "--lr-lower", "nan"),
        ("finetune", "--decay-factor", "inf"), ("finetune", "--seed", "-1"),
        ("synth", "--noise-sigma", "nan"), ("synth", "--noise-sigma", "inf"),
        ("synth", "--seed", "-1"),
    ])
    def test_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                        stage, option, value):
        out = tmp_path / "out"
        extra = SYNTH_FLAGS if stage == "synth" else []
        assert main([*stage_argv(stage, pipeline, out), *extra, option, value]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_max_rank_past_its_bound_exits_2(self, pipeline, tmp_path, capsys, source):
        out, value = tmp_path / "out", "1000000000000"
        extra = ["--max-rank", value]
        if source == "config":
            (tmp_path / "c.txt").write_text(f"max-rank={value}\n")
            extra = ["--config", str(tmp_path / "c.txt")]
        assert main([*stage_argv("eval", pipeline, out), *extra]) == 2
        err = capsys.readouterr().err
        assert f"max_rank must be between 1 and {evaluate.MAX_RANK}, got {value}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_max_rank_out_of_range_exits_2_before_anything_is_read(self, pipeline, tmp_path,
                                                                 monkeypatch, capsys):
        def unread(*args, **kwargs):
            raise AssertionError("read before --max-rank was checked")

        for module, name in ((protocol, "read_metadata"), (cli, "load_gallery"),
                             (cli, "StoreReader")):
            monkeypatch.setattr(module, name, unread)
        out = tmp_path / "out"
        assert main([*stage_argv("eval", pipeline, out), "--max-rank", "0"]) == 2
        err = capsys.readouterr().err
        assert f"max_rank must be between 1 and {evaluate.MAX_RANK}, got 0" in err
        assert not out.exists()


NUMERIC_OPTIONS = [(stage, option) for stage, options in {
    "synth": ["identities", "templates", "media", "map-dims", "impostor-fraction",
              "noise-sigma", "seed", "splits"],
    "finetune": ["split", "epochs", "batch-size", "lr-lower", "lr-last", "decay-factor",
                 "dropout", "patience", "kernel-size", "out-channels", "seed"],
    "train-gallery": ["split", "reg-c", "epochs", "seed"],
    "eval": ["split", "max-rank"],
}.items() for option in options]
ARGV_VALUES = ["0", "-1", "-3", "0.5", "1", "2", "nan", "inf", "-inf", "abc", ""]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(NUMERIC_OPTIONS), st.sampled_from(ARGV_VALUES))
def test_numeric_options_exit_with_a_documented_code(pipeline, stage_option, value):
    stage, option = stage_option
    out = Path(tempfile.mkdtemp(dir=pipeline.root)) / "out"
    base = {"synth": SYNTH_FLAGS, "finetune": ["--epochs", "2"]}.get(stage, [])
    code = main([*stage_argv(stage, pipeline, out), *base, f"--{option}", value])
    assert code in (0, 2, 3, 4)
    assert code == 0 or not out.exists()


class TestFailedRunKeepsPreviousOutputs:
    """A stage that fails leaves its output directory byte-identical to
    what the last successful run left there, holds no temporary, and
    makes no directory."""

    def check(self, tmp_path, previous, argv_for, code):
        old = tmp_path / "old"
        shutil.copytree(previous, old)
        before = snapshot(old)
        assert main(argv_for(old)) == code
        assert snapshot(old) == before
        assert main(argv_for(tmp_path / "fresh" / "out")) == code
        assert not (tmp_path / "fresh").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("damage, code", [("missing", 2), ("truncated", 3)])
    def test_eval_with_split_2_models_gone(self, pipeline, tmp_path, damage, code):
        # split 1 retrained with other settings, split 2 deleted or cut short
        models = tmp_path / "models"
        assert main([*stage_argv("train-gallery", pipeline, models), "--split", "1",
                     "--reg-c", "2.0"]) == 0
        if damage == "truncated":
            whole = (pipeline.models / "gallery_s02.bgm").read_bytes()
            (models / "gallery_s02.bgm").write_bytes(whole[:-4])

        def argv_for(out):
            return ["eval", "--data", str(pipeline.data), "--descriptors", str(pipeline.desc),
                    "--models", str(models), "--out", str(out)]

        self.check(tmp_path, pipeline.res, argv_for, code)

    @pytest.mark.parametrize("fault", ["non-finite", "short"])
    def test_eval_with_a_bad_probe_row_in_a_later_block(self, tmp_path, monkeypatch,
                                                        capsys, fault):
        dim = 32 * 32  # 4 KiB rows: more than the file's read buffer holds
        run_pipeline(tmp_path, "big", synth_extra=("--map-dims", "2x2x32"))
        data, desc = tmp_path / "data_big", tmp_path / "desc_big"
        # the probe medium of split 1 stored last, outside its first template
        templates = evaluate.probe_templates(read_metadata(data / "metadata.csv")[0])
        rows = {m: i for i, m in enumerate((desc / "manifest.csv").read_text().split()[1:])}
        medium = max((m.media_id for t in templates[1:] for m in t.media), key=rows.get)
        store = desc / "descriptors.npy"
        offset = store.stat().st_size - 4 * dim * (len(rows) - rows[medium])
        if fault == "non-finite":
            with open(store, "r+b") as f:
                f.seek(offset)
                f.write(struct.pack("<f", np.inf))
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", 1)  # a template per block
        read, outcomes = StoreReader.read, []

        def recorded(reader, lo, hi):
            if fault == "short" and outcomes == ["ok"]:  # cut the store after a block
                os.truncate(store, offset + 3)
            try:
                block = read(reader, lo, hi)
            except CorruptFileError:
                outcomes.append("bad")
                raise
            outcomes.append("ok")
            return block

        monkeypatch.setattr(StoreReader, "read", recorded)

        def argv_for(out):
            return ["eval", "--data", str(data), "--descriptors", str(desc),
                    "--models", str(tmp_path / "models_big"), "--out", str(out)]

        self.check(tmp_path, tmp_path / "eval_big", argv_for, 3)
        assert outcomes[0] == "ok" and "bad" in outcomes
        assert f"row {rows[medium]} ({medium}) is short or non-finite" in capsys.readouterr().err

    # 6 gallery media: the Gram form at dim 16, in blocks of 6, 6 and 4
    # columns, and the primal loop at dim 4
    @pytest.mark.parametrize("map_dims, gram", [("6x6x4", True), ("6x6x2", False)],
                             ids=["gram", "primal"])
    @pytest.mark.parametrize("fault", ["non-finite", "short"])
    def test_train_gallery_with_a_bad_gallery_row(self, tmp_path, monkeypatch, capsys,
                                                  map_dims, gram, fault):
        run_pipeline(tmp_path, "bad", synth_extra=("--map-dims", map_dims))
        data, desc = tmp_path / "data_bad", tmp_path / "desc_bad"
        (split,) = read_metadata(data / "metadata.csv")
        rows = {m: i for i, m in enumerate((desc / "manifest.csv").read_text().split()[1:])}
        gallery = [m.media_id for t in split.gallery for m in t.media]
        medium = max(gallery, key=rows.get)  # the gallery medium stored last
        store = desc / "descriptors.npy"
        whole, dim = store.read_bytes(), np.load(store).shape[1]
        assert (len(gallery) < dim) == gram
        end = len(whole) - 4 * dim * (len(rows) - 1 - rows[medium])  # where its row ends
        if fault == "non-finite":  # in its last column, so in the last column block
            with open(store, "r+b") as f:
                f.seek(end - 4)
                f.write(struct.pack("<f", np.inf))
        monkeypatch.setattr(svm, "GRAM_BLOCK", 6)
        columns = StoreReader.columns

        def cut(reader, lo, hi):
            if fault == "short":  # after the checks at opening
                os.truncate(store, end - 3)
            return columns(reader, lo, hi)

        monkeypatch.setattr(StoreReader, "columns", cut)

        def argv_for(out):
            if fault == "short":
                store.write_bytes(whole)  # whole again for each run to open
            return ["train-gallery", "--data", str(data), "--descriptors", str(desc),
                    "--out", str(out)]

        self.check(tmp_path, tmp_path / "models_bad", argv_for, 3)
        err = capsys.readouterr().err
        assert err.count(f"row {rows[medium]} ({medium}) is short or non-finite") == 2

    # the Gram form reads the store twice, 3 blocks of 6, 6 and 4 columns each
    # time; the row goes bad after the first pass, so in the save
    @pytest.mark.parametrize("fault", ["non-finite", "short"])
    def test_train_gallery_with_a_row_gone_bad_between_the_gram_passes(
            self, tmp_path, monkeypatch, capsys, fault):
        run_pipeline(tmp_path, "late", synth_extra=("--map-dims", "6x6x4"))
        data, desc = tmp_path / "data_late", tmp_path / "desc_late"
        rows = {m: i for i, m in enumerate((desc / "manifest.csv").read_text().split()[1:])}
        (split,) = read_metadata(data / "metadata.csv")
        medium = max((m.media_id for t in split.gallery for m in t.media), key=rows.get)
        store = desc / "descriptors.npy"
        whole, dim = store.read_bytes(), np.load(store).shape[1]
        end = len(whole) - 4 * dim * (len(rows) - 1 - rows[medium])  # where its row ends
        monkeypatch.setattr(svm, "GRAM_BLOCK", 6)
        columns, blocks = StoreReader.columns, []

        def late(reader, lo, hi):
            blocks.append(lo)
            if len(blocks) == 4:  # the second pass begins
                if fault == "short":
                    os.truncate(store, end - 3)
                else:  # in its last column, so in the last block
                    with open(store, "r+b") as f:
                        f.seek(end - 4)
                        f.write(struct.pack("<f", np.inf))
            return columns(reader, lo, hi)

        monkeypatch.setattr(StoreReader, "columns", late)

        def argv_for(out):
            store.write_bytes(whole)  # whole again for each run to open
            blocks.clear()
            return ["train-gallery", "--data", str(data), "--descriptors", str(desc),
                    "--out", str(out)]

        self.check(tmp_path, tmp_path / "models_late", argv_for, 3)
        assert blocks == [0, 6, 12, 0, 6, 12]
        err = capsys.readouterr().err
        assert err.count(f"row {rows[medium]} ({medium}) is short or non-finite") == 2

    def test_train_gallery_with_split_2_descriptors_gone(self, pipeline, tmp_path):
        desc = tmp_path / "desc"
        shutil.copytree(pipeline.desc, desc)
        manifest = desc / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("s02_", "x02_"))

        def argv_for(out):
            return ["train-gallery", "--data", str(pipeline.data), "--descriptors", str(desc),
                    "--out", str(out)]

        self.check(tmp_path, pipeline.models, argv_for, 2)

    def test_finetune_failing_after_its_first_file(self, pipeline, tmp_path, monkeypatch):
        def argv_for(out):
            return [*stage_argv("finetune", pipeline, out), "--epochs", "2"]

        previous = tmp_path / "previous"
        assert main(argv_for(previous)) == 0
        save = np.save

        def save_one(file, array):
            if file.name.endswith("extractor_bias.npy.tmp"):
                raise OSError("disk full")
            save(file, array)

        monkeypatch.setattr(np, "save", save_one)
        self.check(tmp_path, previous, argv_for, 3)

    @pytest.mark.parametrize("change, message", [
        ("reshaped", "header changed since the first read"),
        ("truncated", "payload size changed since the first read"),
        ("non-finite", "changed since the first read: feature map contains non-finite values"),
    ])
    def test_finetune_with_a_train_map_changed_after_the_first_pass(
            self, tmp_path, monkeypatch, capsys, change, message):
        data = synth(tmp_path, extra=("--templates", "6"))
        (split,) = read_metadata(data / "metadata.csv")
        medium = max((m for t in split.train for m in t.media), key=lambda m: m.media_id)
        path = data / medium.path
        whole = path.read_bytes()

        def argv_for(out):
            path.write_bytes(whole)  # sound again for each run's first pass
            return ["finetune", "--data", str(data), "--out", str(out), "--epochs", "2"]

        previous = tmp_path / "previous"
        assert main(argv_for(previous)) == 0
        values = load_feature_map(path).values
        smaller = values[:5, :5].copy()
        values[0, 0, 0] = np.nan
        changed = {"reshaped": lambda: save_feature_map(path, smaller),
                   "truncated": lambda: path.write_bytes(whole[:-4]),
                   "non-finite": lambda: path.write_bytes(whole[:20] + values.tobytes())}
        train = cli.finetune_softmax

        def changed_then_trained(*args):  # after the first pass has read every map
            changed[change]()
            return train(*args)

        monkeypatch.setattr(cli, "finetune_softmax", changed_then_trained)
        capsys.readouterr()
        self.check(tmp_path, previous, argv_for, 3)
        assert capsys.readouterr().err.count(f"{path}: {message}") == 2

    def test_plot_with_a_bad_det(self, pipeline, tmp_path):
        previous = tmp_path / "previous"
        cmc, det = pipeline.res / "cmc_s01.csv", pipeline.res / "det_s01.csv"
        assert main(["plot", "--cmc", str(cmc), "--det", str(det),
                     "--out", str(previous)]) == 0
        bad = tmp_path / "det.csv"
        bad.write_text("threshold,fpir,fnir\n0.5,0.0,0.1\n")

        def argv_for(out):
            return ["plot", "--cmc", str(cmc), "--det", str(bad), "--out", str(out)]

        self.check(tmp_path, previous, argv_for, 2)
