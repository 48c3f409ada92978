"""Smoke test and self-test of the benchmark, on tiny workloads.

    python3 -m pytest bench/test_bench.py -q

The smoke test runs every workload's stages, untraced and traced, on a
seconds-long variant of it; there is no wall-time assertion.  The
self-test corrupts one output at a time and shows that the independent
checks reject each corrupted copy.
"""

import json
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Untraced and traced results of every tiny workload, with their work dirs."""
    results = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}_{int(trace)}") / "work"
            results[name, trace] = (run.measure(tiny(workload), 3, 0, trace, work), work)
    return results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_checks(outputs, name, trace):
    result, _ = outputs[name, trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_run_counts_the_waste_it_names(outputs):
    metrics = outputs["many_ids", True][0]["metrics"]
    assert metrics["finetune.loss_passes_per_epoch"]["value"] == 2
    assert metrics["svm.objective_evals_per_epoch"]["value"] > 1
    assert metrics["evaluate.pool_features_calls"]["value"] == 0
    assert outputs["desk_10split", True][0]["metrics"][
        "evaluate.pool_features_calls"]["value"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_missing_function_is_reported_absent(tmp_path):
    script = (
        "import sys, runpy; sys.argv = ['traced_stage.py'] + sys.argv[1:];"
        "import bilin.svm; del bilin.svm.score;"
        f"runpy.run_path({str(BENCH / 'traced_stage.py')!r}, run_name='__main__')"
    )
    trace_file = tmp_path / "trace.json"
    env = run.stage_env()
    proc = subprocess.run(
        [sys.executable, "-c", script, str(trace_file), "synth", "--out",
         str(tmp_path / "d"), "--identities", "3", "--templates", "2", "--media", "1",
         "--map-dims", "2x2x2", "--impostor-fraction", "0.34", "--splits", "1"],
        env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_file.read_text())
    assert "svm.score" in trace["absent"]
    stats = {"svm.score": {"calls": 0, "busy_s": 0.0, "self_s": 0.0}}
    values, absent = run.layer_metrics(
        {"eval": {**trace, "stats": stats}}, trace, tiny(WORKLOADS["many_ids"]))
    assert values["svm.score_s"] == 0.0
    assert {"svm.score_s", "svm.score_calls", "evaluate.scores_per_template"} <= absent


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_10split", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""


# ------------------------------------------------------------ self-test


def flip_weight(work):
    path = work / "models" / "gallery_s01.bgm"
    data = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<H", data, 12)
    _, dim = struct.unpack_from("<II", data, 4)
    w = np.frombuffer(bytes(data), dtype="<f4", count=dim, offset=14 + n)
    k = int(np.argmax(np.abs(w)))
    struct.pack_into("<f", data, 14 + n + 4 * k, -float(w[k]))
    path.write_bytes(bytes(data))


def negate_rescale_a(work):
    path = work / "models" / "gallery_s01.bgm"
    data = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<H", data, 12)
    _, dim = struct.unpack_from("<II", data, 4)
    offset = 14 + n + 4 * dim + 4
    (a,) = struct.unpack_from("<f", data, offset)
    struct.pack_into("<f", data, offset, -a)
    path.write_bytes(bytes(data))


def truncate_gallery(work):
    path = work / "models" / "gallery_s01.bgm"
    path.write_bytes(path.read_bytes()[:-3])


def edit_json(relpath, edit):
    def corrupt(work):
        path = work / relpath
        value = json.loads(path.read_text())
        edit(value)
        path.write_text(json.dumps(value))
    return corrupt


def edit_csv_cell(relpath, row, column, value):
    def corrupt(work):
        path = work / relpath
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return corrupt


def zero_probe_map(work):
    """Zero half of one medium of the first mated probe template, which
    moves that template's scores."""
    splits = checks.read_metadata(work / "data" / "metadata.csv")
    gallery = {t.subject_id for t in splits[1]["gallery"]}
    probe = next(t for t in sorted(splits[1]["probe"], key=lambda t: t.template_id)
                 if t.subject_id in gallery)
    path = probe.paths[0]
    data = bytearray(path.read_bytes())
    values = np.frombuffer(bytes(data), dtype="<f4", offset=20).copy()
    values[: values.size // 2] = 0.0
    path.write_bytes(bytes(data[:20]) + values.tobytes())


def bad_magic(work):
    path = next((work / "data" / "maps").glob("*.bfm"))
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def scale_head(work):
    path = work / "ft" / "head_weights.npy"
    np.save(path, np.load(path) * 1.01)


CORRUPTIONS = {
    "flipped .bgm weight": (flip_weight, "rescaled medians"),
    "negative rescale_a": (negate_rescale_a, "rescale_a"),
    "truncated .bgm": (truncate_gallery, "trailing bytes|truncated"),
    "edited summary rank1": (edit_json("res/summary.json",
                                       lambda s: s["splits"]["1"].update(rank1=0.5)),
                             "summary rank1"),
    "edited summary mean": (edit_json("res/summary.json",
                                      lambda s: s["mean"].update(rank5=0.123)),
                            "summary mean"),
    "edited CMC recall": (edit_csv_cell("res/cmc_s01.csv", 1, 1, "0.0"), "recall differs"),
    "edited DET FNIR": (edit_csv_cell("res/det_s01.csv", 2, 2, "0.999"), "FNIR at"),
    "edited DET threshold": (edit_csv_cell("res/det_s01.csv", 2, 0, "123.0"),
                             "threshold"),
    "altered probe map": (zero_probe_map, "score|recall|FPIR|FNIR|summary"),
    "bad .bfm magic": (bad_magic, "not a BFM1 file"),
    "edited loss trace": (edit_json("ft/loss_trace.json",
                                    lambda t: t.__setitem__(-1, t[-1] * 1.001)),
                          "clean loss"),
    "non-finite loss trace": (edit_json("ft/loss_trace.json",
                                        lambda t: t.__setitem__(0, float("nan"))),
                              "not finite"),
    "short loss trace": (edit_json("ft/loss_trace.json", lambda t: t.pop()), "entries"),
    "scaled softmax head": (scale_head, "clean loss"),
    "edited metadata header": (edit_csv_cell("data/metadata.csv", 0, 0, "split"),
                               "header"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checks_reject_corrupted_copy(outputs, tmp_path, case):
    corrupt, message = CORRUPTIONS[case]
    name = "desk_10split" if "summary mean" in case else "many_ids"
    source = outputs[name, False][1]
    work = tmp_path / "copy"
    shutil.copytree(source / "out", work)
    shutil.copytree(source / "data", work / "data")
    workload = tiny(WORKLOADS[name])
    checks.check_outputs(work / "data", work, workload)  # the copy passes
    corrupt(work)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_outputs(work / "data", work, workload)
