import csv
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import read_metadata_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilin.encoder import encode
from bilin.errors import ConfigError, MetadataError
from bilin.io import load_feature_map
from bilin.protocol import SynthConfig, read_metadata, synth_generate, write_metadata

HEADER = "split_index,role,template_id,subject_id,media_id,kind,path\n"

MINIMAL = HEADER + "\n".join([
    "1,train,t-tr1,subjA,m01,still,maps/m01.bfm",
    "1,gallery,t-g1,subjA,m02,still,maps/m02.bfm",
    "1,probe,t-p1,subjA,m03,frame,maps/m03.bfm",
    "1,probe,t-p2,subjZ,m04,still,maps/m04.bfm",
]) + "\n"


def write_csv(tmp_path, text, name="metadata.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_open_set(split):
    """One gallery template per enrolled subject, at least one impostor
    probe, and no template without media."""
    enrolled = [t.subject_id for t in split.gallery]
    assert enrolled and len(enrolled) == len(set(enrolled))
    assert split.impostor_probes()
    assert all(t.media for role in ("train", "gallery", "probe")
               for t in split.templates(role))


class TestReadMetadata:
    def test_minimal_open_set_fixture(self, tmp_path):
        splits = read_metadata(write_csv(tmp_path, MINIMAL))
        assert len(splits) == 1
        split = splits[0]
        assert [t.template_id for t in split.train] == ["t-tr1"]
        assert [t.template_id for t in split.gallery] == ["t-g1"]
        assert len(split.probe) == 2
        assert [t.subject_id for t in split.impostor_probes()] == ["subjZ"]
        assert_open_set(split)

    def test_round_trip(self, tmp_path):
        splits = read_metadata(write_csv(tmp_path, MINIMAL))
        out = tmp_path / "copy.csv"
        write_metadata(splits, out)
        assert read_metadata(out) == splits

    def test_template_spanning_subjects_rejected(self, tmp_path):
        text = HEADER + "\n".join([
            "1,gallery,t1,subjA,m01,still,a.bfm",
            "1,gallery,t1,subjB,m02,still,b.bfm",
            "1,probe,t2,subjC,m03,still,c.bfm",
        ])
        with pytest.raises(MetadataError, match="spans"):
            read_metadata(write_csv(tmp_path, text))

    def test_template_spanning_roles_rejected(self, tmp_path):
        text = HEADER + "\n".join([
            "1,gallery,t1,subjA,m01,still,a.bfm",
            "1,probe,t1,subjA,m02,still,b.bfm",
        ])
        with pytest.raises(MetadataError, match="roles"):
            read_metadata(write_csv(tmp_path, text))

    def test_duplicate_media_id_rejected(self, tmp_path):
        text = HEADER + "\n".join([
            "1,gallery,t1,subjA,m01,still,a.bfm",
            "1,probe,t2,subjB,m01,still,b.bfm",
        ])
        with pytest.raises(MetadataError, match="duplicate"):
            read_metadata(write_csv(tmp_path, text))

    def test_unsafe_media_id_rejected(self, tmp_path):
        text = HEADER + "\n".join([
            "1,gallery,t1,subjA,m/01,still,a.bfm",
            "1,probe,t2,subjB,m02,still,b.bfm",
        ])
        with pytest.raises(MetadataError, match="filename-safe"):
            read_metadata(write_csv(tmp_path, text))

    def test_unknown_role_rejected(self, tmp_path):
        text = HEADER + "1,enrolled,t1,subjA,m01,still,a.bfm"
        with pytest.raises(MetadataError, match="role"):
            read_metadata(write_csv(tmp_path, text))

    def test_unknown_kind_rejected(self, tmp_path):
        text = HEADER + "1,gallery,t1,subjA,m01,video,a.bfm"
        with pytest.raises(MetadataError, match="kind"):
            read_metadata(write_csv(tmp_path, text))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(MetadataError, match="no media rows"):
            read_metadata(write_csv(tmp_path, HEADER))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(MetadataError, match="header"):
            read_metadata(write_csv(tmp_path, "a,b,c\n1,2,3\n"))

    def test_bad_split_index_rejected(self, tmp_path):
        text = HEADER + "one,gallery,t1,subjA,m01,still,a.bfm"
        with pytest.raises(MetadataError, match="split_index"):
            read_metadata(write_csv(tmp_path, text))

    @pytest.mark.parametrize("order", [range(7), [6, 2, 0, 5, 1, 4, 3]])
    @pytest.mark.parametrize("cut", [1, 6])
    def test_short_row_rejected_naming_its_line(self, tmp_path, order, cut):
        lines = [[line.split(",")[i] for i in order] for line in MINIMAL.splitlines()]
        lines[2] = lines[2][:-cut]
        path = write_csv(tmp_path, "".join(",".join(line) + "\n" for line in lines))
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            assert str(info.value) == f"{path}:3: row has fewer cells than the header"

    @pytest.mark.parametrize("blank", ["\n", "\n\n", "\r\n"])
    def test_error_after_blank_lines_names_the_file_line(self, tmp_path, blank):
        text = HEADER + blank + "1,bogus,t1,subjA,m01,still,a.bfm\n"
        path = write_csv(tmp_path, text)
        line = 2 + blank.count("\n")
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            assert str(info.value) == f"{path}:{line}: unknown role 'bogus'"

    def test_bad_row_then_a_late_non_utf8_byte_is_not_utf8(self, tmp_path):
        rows = "".join(f"1,probe,t{i},subjA,m{i},still,maps/m{i}.bfm\n" for i in range(400))
        path = tmp_path / "metadata.csv"
        # the bad byte lies more than one 8 KiB decode chunk past the bad row
        path.write_bytes((HEADER + "1,bogus,t,subjA,m,still,m.bfm\n" + rows).encode("utf-8")
                         + b"\xff\n")
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            assert str(info.value) == f"{path}: not UTF-8 text"

    @pytest.mark.parametrize("line", [1, 3])
    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, line):
        lines = MINIMAL.splitlines()
        lines[line - 1] += "x" * csv.field_size_limit()
        path = write_csv(tmp_path, "".join(f"{text}\n" for text in lines))
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            assert str(info.value) == (f"{path}:{line}: field larger than field limit "
                                       f"({csv.field_size_limit()})")

    def test_path_with_a_nul_byte_is_rejected_naming_its_line(self, tmp_path):
        lines = MINIMAL.splitlines()
        lines[2] += "\0"
        path = write_csv(tmp_path, "".join(f"{text}\n" for text in lines))
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            assert str(info.value) == f"{path}:3: path 'maps/m02.bfm\\x00' holds a NUL byte"

    def test_peak_memory_stays_near_what_the_splits_hold(self, tmp_path):
        roles = ["gallery", "train", "train"] + ["probe"] * 9
        path = write_csv(tmp_path, HEADER + "".join(
            f"1,{roles[t % 12]},s{t // 12:03d}_t{t % 12:02d},s{t // 12:03d},"
            f"s{t // 12:03d}_t{t % 12:02d}_m{m:02d},{'frame' if m else 'still'},"
            f"maps/s{t // 12:03d}_t{t % 12:02d}_m{m:02d}.bfm\n"
            for t in range(600) for m in range(4)))  # 2400 rows
        read_metadata(path)  # so one-time caches are not counted
        tracemalloc.start()
        try:
            splits = read_metadata(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(1 for _ in splits[0].all_media()) == 2400
        # a reader that keeps every row before building the records peaks at 1.7x
        assert peak < 1.5 * held, (peak, held)

    def test_check_files_flags_missing(self, tmp_path):
        path = write_csv(tmp_path, MINIMAL)
        with pytest.raises(MetadataError, match="missing"):
            read_metadata(path, check_files=True)

    def test_check_files_passes_when_present(self, tmp_path):
        path = write_csv(tmp_path, MINIMAL)
        (tmp_path / "maps").mkdir()
        for name in ("m01", "m02", "m03", "m04"):
            (tmp_path / "maps" / f"{name}.bfm").write_bytes(b"")
        read_metadata(path, check_files=True)

    def test_ten_fold_layout(self, tmp_path):
        rows = [HEADER.strip()]
        for s in range(1, 11):
            rows.append(f"{s},gallery,s{s}t1,subjA,s{s}m1,still,a.bfm")
            rows.append(f"{s},probe,s{s}t2,subjB,s{s}m2,still,b.bfm")
        splits = read_metadata(write_csv(tmp_path, "\n".join(rows) + "\n"))
        assert [s.split_index for s in splits] == list(range(1, 11))

    def test_reordered_columns_and_blank_lines_read_the_same(self, tmp_path):
        lines = [line.split(",") for line in MINIMAL.splitlines()]
        order = [6, 2, 0, 5, 1, 4, 3]
        text = "\n\n".join(",".join(line[i] for i in order) for line in lines) + "\n"
        assert read_metadata(write_csv(tmp_path, text)) == read_metadata(
            write_csv(tmp_path, MINIMAL, "plain.csv"))


def _mutated_csv(edits, raw):
    """MINIMAL and a second split, as bytes, after ``edits`` to its lines
    (each a list of cells; line 0 is the header) and ``raw`` byte inserts."""
    lines = [line.split(",") for line in MINIMAL.splitlines()]
    lines += [["2", *line[1:4], f"{line[4]}b", *line[5:]] for line in lines[1:]]
    for op, at, *args in edits:
        at %= len(lines)
        if op == "blank":
            lines.insert(at, [])
        elif op == "cut":
            lines[at] = lines[at][:-args[0]]
        elif op == "extend":
            lines[at] = lines[at] + lines[at][-1:] * args[0]  # in the header, a repeated name
        elif op == "repeat":  # a header column named twice, the second past every row
            lines[0].append(lines[0][args[0]])
        elif op == "permute":
            order, header_only = args
            for line in lines[:1] if header_only else lines:
                line[:] = [line[i] for i in order if i < len(line)]
        else:  # "set" a cell, which may also name a header column twice
            column, value = args[0]
            if column < len(lines[at]):
                lines[at][column] = value
    data = "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
    for at, inserted in raw:
        at = at * 37 % (len(data) + 1)  # small draws land past the header too
        data = data[:at] + inserted + data[at:]
    return data


# (column, value): bad or repeated values for a row, a repeated name for the header
CELLS = [(0, "x"), (0, ""), (0, "2"), (1, "enrolled"), (1, "probe"), (1, "gallery"),
         (2, "t-g1"), (2, "t-p1"), (3, "subjA"), (3, "subjZ"), (4, "m01"), (4, "m02b"),
         (4, "m/01"), (4, ".."), (4, ""), (5, "video"), (5, "frame"), (6, "role"),
         (6, "path")]
LINE = st.integers(1, 16)  # modulo the 9 lines: the header now and then
EDITS = st.lists(st.one_of(
    st.tuples(st.just("blank"), LINE),
    st.tuples(st.just("cut"), LINE, st.integers(1, 7)),
    st.tuples(st.just("extend"), LINE, st.integers(1, 3)),
    st.tuples(st.just("repeat"), LINE, st.integers(0, 6)),
    st.tuples(st.just("permute"), LINE, st.permutations(range(7)), st.booleans()),
    st.tuples(st.just("set"), LINE, st.sampled_from(CELLS)),
), max_size=4)
RAW_INSERTS = st.lists(st.tuples(st.integers(0, 400), st.sampled_from(
    [b"\n", b"\r\n", b'"', b",", b"\xc3\xa9", b"\xff", b"\xc3("])), max_size=1)


class TestReadMetadataMatchesDictReader:
    @pytest.mark.parametrize("header", [HEADER, "a,b,c\n"])
    def test_header_is_checked_before_the_rows_are_decoded(self, tmp_path, header):
        rows = "".join(f"1,probe,t{i},subjA,m{i},still,maps/m{i}.bfm\n" for i in range(400))
        path = tmp_path / "metadata.csv"
        path.write_bytes((header + rows).encode("utf-8") + b"\xff\n")  # past the first 8 KiB
        messages = []
        for reader in (read_metadata, read_metadata_oracle):
            with pytest.raises(MetadataError) as info:
                reader(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert ("header" if header != HEADER else "not UTF-8") in messages[0]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=EDITS, raw=RAW_INSERTS)
    def test_property_same_splits_or_same_message(self, tmp_path, edits, raw):
        path = tmp_path / "metadata.csv"
        path.write_bytes(_mutated_csv(edits, raw))
        outcomes = []
        for reader in (read_metadata, read_metadata_oracle):
            try:
                outcomes.append(reader(path))
            except MetadataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


SMALL = dict(num_identities=4, templates_per_identity=3, media_per_template=2,
             map_dims=(6, 6, 4), impostor_fraction=0.3, noise_sigma=0.1, seed=11)


class TestSynthGenerate:
    def test_deterministic_tree(self, tmp_path):
        synth_generate(SynthConfig(**SMALL), tmp_path / "a")
        synth_generate(SynthConfig(**SMALL), tmp_path / "b")
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_different_seed_changes_tree(self, tmp_path):
        synth_generate(SynthConfig(**SMALL), tmp_path / "a")
        synth_generate(SynthConfig(**{**SMALL, "seed": 12}), tmp_path / "b")
        assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")

    def test_structure_satisfies_protocol(self, tmp_path):
        splits = synth_generate(SynthConfig(**SMALL), tmp_path)
        reloaded = read_metadata(tmp_path / "metadata.csv", check_files=True)
        assert reloaded == splits
        assert_open_set(splits[0])
        assert len({t.subject_id for t in splits[0].impostor_probes()}) == 1

    def test_maps_are_rectified(self, tmp_path):
        splits = synth_generate(SynthConfig(**SMALL), tmp_path)
        first = next(iter(splits[0].all_media()))
        fmap = load_feature_map(tmp_path / first.path)
        assert fmap.rectified
        assert fmap.values.min() >= 0.0
        assert fmap.values.shape == (6, 6, 4)

    def test_multi_split_generation(self, tmp_path):
        cfg = SynthConfig(**{**SMALL, "num_splits": 3})
        splits = synth_generate(cfg, tmp_path)
        assert [s.split_index for s in splits] == [1, 2, 3]
        # identities are split-scoped, so media ids never collide
        read_metadata(tmp_path / "metadata.csv")

    def test_noise_free_descriptors_cluster_by_identity(self, tmp_path):
        cfg = SynthConfig(num_identities=4, templates_per_identity=3,
                          media_per_template=2, map_dims=(12, 12, 6),
                          impostor_fraction=0.3, noise_sigma=0.0, seed=7)
        split = synth_generate(cfg, tmp_path)[0]
        by_subject = {}
        for role in ("train", "gallery", "probe"):
            for t in split.templates(role):
                for m in t.media:
                    desc = encode(load_feature_map(tmp_path / m.path).values)
                    by_subject.setdefault(t.subject_id, []).append(desc)
        subjects = sorted(by_subject)
        within = [
            float(a @ b)
            for s in subjects
            for i, a in enumerate(by_subject[s])
            for b in by_subject[s][i + 1:]
        ]
        between = [
            float(a @ b)
            for i, s in enumerate(subjects)
            for other in subjects[i + 1:]
            for a in by_subject[s]
            for b in by_subject[other]
        ]
        assert min(within) > max(between)

    def test_impostor_arithmetic(self):
        cfg = SynthConfig(num_identities=6, impostor_fraction=0.33)
        assert cfg.impostor_count() == 2

    def test_every_identity_appears_in_probe(self, tmp_path):
        split = synth_generate(SynthConfig(**SMALL), tmp_path)[0]
        probe_subjects = {t.subject_id for t in split.probe}
        all_subjects = {
            t.subject_id
            for role in ("train", "gallery", "probe")
            for t in split.templates(role)
        }
        assert probe_subjects == all_subjects

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(impostor_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            SynthConfig(num_identities=20, impostor_fraction=0.01).validate()
        with pytest.raises(ConfigError):
            SynthConfig(num_identities=4, impostor_fraction=0.7).validate()
        with pytest.raises(ConfigError):
            SynthConfig(templates_per_identity=1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(map_dims=(0, 3, 3)).validate()
        with pytest.raises(ConfigError):
            SynthConfig(noise_sigma=-0.1).validate()
        with pytest.raises(ConfigError):
            SynthConfig(num_splits=0).validate()

    def test_map_size_bounded_by_the_format_limit(self):
        # validate allocates nothing, so the limit itself can be tried
        SynthConfig(map_dims=(2**14, 2**7, 2**7)).validate()
        SynthConfig(map_dims=(1, 1, 2**14)).validate()
        with pytest.raises(ConfigError, match="16384x128x129"):
            SynthConfig(map_dims=(2**14, 2**7, 2**7 + 1)).validate()
        with pytest.raises(ConfigError, match="16385x16385 mixing matrix"):
            SynthConfig(map_dims=(1, 1, 2**14 + 1)).validate()
