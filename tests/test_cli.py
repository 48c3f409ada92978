import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from bilin.cli import main
from bilin.io import load_gallery, load_store, save_feature_map
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


def overwrite_store(desc, row):
    """Replace every stored descriptor by ``row``, keeping the manifest."""
    n = len((desc / "manifest.csv").read_text().splitlines()) - 1
    np.save(desc / "descriptors.npy", np.tile(np.asarray(row, np.float32), (n, 1)))


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
