"""Checks of a workload's outputs, computed apart from the program.

Nothing here imports `bilin`.  The checks read the documented formats
(metadata.csv, .bfm maps, .bgm gallery models) with their own readers,
encode the probe and gallery maps themselves (outer product, signed
square root, L2; the descriptor files are never read), score, pool and
rank the probes, and rebuild CMC, DET and FNIR@FPIR.  The results are
compared with the program's CSVs and summary.json, with a tolerance
for the program's float32 storage of descriptors and models.  Each
failed check raises CheckError.
"""

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_COLUMNS = ["split_index", "role", "template_id", "subject_id",
               "media_id", "kind", "path"]

MEDIAN_TOL = 1e-3    # rescaled median positive / negative vs. +1 / -1
LOSS_RTOL = 1e-9     # recomputed clean cross-entropy vs. loss_trace.json
FNIR_TARGETS = (0.1, 0.01)


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ------------------------------------------------------------- readers


@dataclass
class Template:
    template_id: str
    subject_id: str
    paths: list


def read_metadata(path):
    """{split: {role: [Template, ...]}} in file order."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        require(header == CSV_COLUMNS, f"{path}: header {header}")
        splits = {}
        templates = {}
        for row in reader:
            require(len(row) == len(CSV_COLUMNS), f"{path}: row {row}")
            split, role, tid, subject, _media, kind, rel = row
            require(role in ("train", "gallery", "probe"), f"{path}: role {role!r}")
            require(kind in ("still", "frame"), f"{path}: kind {kind!r}")
            key = (int(split), tid)
            if key not in templates:
                templates[key] = Template(tid, subject, [])
                splits.setdefault(int(split), {"train": [], "gallery": [], "probe": []})[
                    role].append(templates[key])
            require(templates[key].subject_id == subject,
                    f"{path}: template {tid} spans subjects")
            templates[key].paths.append(Path(path).parent / rel)
    require(splits, f"{path}: no media rows")
    return splits


def read_bfm(path):
    """(H, W, C) float32 map from a .bfm file."""
    data = Path(path).read_bytes()
    require(len(data) >= 20 and data[:4] == b"BFM1", f"{path}: not a BFM1 file")
    h, w, c, flags = struct.unpack_from("<IIIB3x", data, 4)
    require(flags in (0, 1), f"{path}: flags {flags:#x}")
    require(len(data) == 20 + 4 * h * w * c, f"{path}: payload size")
    return np.frombuffer(data, dtype="<f4", offset=20).reshape(h, w, c)


@dataclass
class Gallery:
    ids: list
    w: np.ndarray       # (n_ids, dim) float64 of the stored float32
    b: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def scores(self, descriptors):
        """Rescaled scores of (n, dim) descriptors, shape (n, n_ids)."""
        return self.a * (descriptors @ self.w.T + self.b) + self.c

    def score_eps(self):
        """Score differences up to this much are put down to the program's
        float32 descriptors and dot products: twice the typical float32
        error of a unit descriptor's rescaled score, sqrt(dim) * 2**-24 *
        a * |w|.  A rank or threshold decided by less counts as a tie."""
        scale = np.max(self.a * np.linalg.norm(self.w, axis=1))
        return 2.0 * math.sqrt(self.w.shape[1]) * 2.0**-24 * scale


def read_bgm(path):
    data = Path(path).read_bytes()
    require(len(data) >= 12 and data[:4] == b"BGM1", f"{path}: not a BGM1 file")
    count, dim = struct.unpack_from("<II", data, 4)
    offset, ids, rows, tails = 12, [], [], []
    for _ in range(count):
        require(offset + 2 <= len(data), f"{path}: truncated")
        (n,) = struct.unpack_from("<H", data, offset)
        offset += 2
        require(offset + n + 4 * dim + 12 <= len(data), f"{path}: truncated")
        ids.append(data[offset:offset + n].decode("utf-8"))
        offset += n
        rows.append(np.frombuffer(data, dtype="<f4", count=dim, offset=offset))
        offset += 4 * dim
        tails.append(struct.unpack_from("<fff", data, offset))
        offset += 12
    require(offset == len(data), f"{path}: {len(data) - offset} trailing bytes")
    tails = np.array(tails, dtype=np.float64).reshape(count, 3)
    return Gallery(ids, np.array(rows, dtype=np.float64).reshape(count, dim),
                   *tails.T)


def read_columns(path, names):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        require(next(reader, None) == names, f"{path}: header")
        rows = [[float(x) for x in row] for row in reader]
    require(rows, f"{path}: no rows")
    return np.array(rows).T


# ------------------------------------------------------------ encoding


def encode(maps):
    """Bilinear descriptors of (n, H, W, C) maps: sum of outer products
    over locations, signed square root, L2 norm; (n, C*C) float64."""
    n, h, w, c = maps.shape
    x = maps.reshape(n, h * w, c).astype(np.float64)
    v = np.matmul(x.transpose(0, 2, 1), x).reshape(n, c * c)
    v = np.sign(v) * np.sqrt(np.abs(v))
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(norm == 0.0, 1.0, norm)


def encode_template(template):
    return encode(np.stack([read_bfm(p) for p in template.paths]))


# ------------------------------------------------------ gallery models


def check_gallery(gallery, templates, dim):
    """Ids, shape and the median rescaling of every model."""
    templates = sorted(templates, key=lambda t: t.template_id)
    subjects = [t.subject_id for t in templates for _ in t.paths]
    require(gallery.ids == sorted(set(subjects)),
            "gallery ids are not the sorted enrolled subjects")
    require(gallery.w.shape[1] == dim, f"gallery dim {gallery.w.shape[1]} != {dim}")
    require(np.all(np.isfinite(gallery.w)) and np.all(np.isfinite(gallery.b)),
            "non-finite gallery weights")
    require(np.all(gallery.a > 0), "rescale_a is not positive")
    scores = gallery.scores(np.concatenate([encode_template(t) for t in templates]))
    labels = np.array(subjects)
    for k, ident in enumerate(gallery.ids):
        pos = np.median(scores[labels == ident, k])
        neg = np.median(scores[labels != ident, k])
        require(abs(pos - 1.0) <= MEDIAN_TOL and abs(neg + 1.0) <= MEDIAN_TOL,
                f"model {ident}: rescaled medians {pos:.6f} / {neg:.6f}, not +1 / -1")


# ---------------------------------------------------------- evaluation


def probe_scores(gallery, probes, pooling):
    """(subjects, (n_probes, n_ids) pooled scores) in template-id order."""
    probes = sorted(probes, key=lambda t: t.template_id)
    pooled = []
    for t in probes:
        d = encode_template(t)
        if pooling == "score":
            pooled.append(gallery.scores(d).max(axis=0))
        else:
            pooled.append(gallery.scores(d.max(axis=0, keepdims=True))[0])
    return [t.subject_id for t in probes], np.array(pooled)


def gaps(values, ref):
    """Distance from each value to the nearest entry of sorted ``ref``."""
    ref = np.concatenate([[-math.inf], ref, [math.inf]])
    i = np.searchsorted(ref, values).clip(1, ref.size - 1)
    return np.minimum(np.abs(ref[i - 1] - values), np.abs(ref[i] - values))


def det_counts(scores, thresholds):
    """#scores >= t for each threshold t."""
    s = np.sort(scores)
    return s.size - np.searchsorted(s, thresholds, side="left")


def fnir_at(fpir, fnir, target):
    """FNIR at the first (lowest) threshold with FPIR <= target,
    interpolated from the previous point when FPIR is below it."""
    idx = int(np.argmax(fpir <= target))
    if fpir[idx] == target or idx == 0:
        return float(fnir[idx])
    frac = (fpir[idx - 1] - target) / (fpir[idx - 1] - fpir[idx])
    return float(fnir[idx - 1] + frac * (fnir[idx] - fnir[idx - 1]))


def check_split_eval(gallery, probes, pooling, cmc_path, det_path, summary):
    """Scores, ranks, CMC, DET and FNIR@FPIR of one split."""
    subjects, scores = probe_scores(gallery, probes, pooling)
    eps = gallery.score_eps()
    column = {ident: k for k, ident in enumerate(gallery.ids)}
    mated = np.array([s in column for s in subjects])
    require(mated.any() and not mated.all(), "need mated and impostor probes")
    true_col = np.array([column[s] for s in np.array(subjects)[mated]])
    s_mated = scores[mated]
    true = s_mated[np.arange(true_col.size), true_col]
    ids = np.arange(len(gallery.ids))
    above = (s_mated > true[:, None]) | (
        (s_mated == true[:, None]) & (ids[None, :] < true_col[:, None]))
    rank = 1 + above.sum(axis=1)
    near = np.abs(s_mated - true[:, None]) <= eps
    near[np.arange(true_col.size), true_col] = False
    slack = near.any(axis=1).sum() / true.size

    ranks, recall = read_columns(cmc_path, ["rank", "recall"])
    require(np.array_equal(ranks, np.arange(1, ranks.size + 1)), f"{cmc_path}: ranks")
    own = np.array([np.mean(rank <= r) for r in ranks])
    worst = np.max(np.abs(own - recall))
    require(worst <= slack + 1e-12,
            f"{cmc_path}: recall differs by {worst:.4f} (ties allow {slack:.4f})")

    impostor = scores[~mated].max(axis=1)
    thresholds, fpir, fnir = read_columns(det_path, ["threshold", "fpir", "fnir"])
    require(thresholds[0] == -math.inf and thresholds[-1] == math.inf,
            f"{det_path}: missing -inf/+inf sentinels")
    require(np.all(np.diff(thresholds) > 0), f"{det_path}: thresholds not ascending")
    relevant = np.sort(np.concatenate([impostor, true]))
    finite = thresholds[1:-1]
    require(np.max(gaps(finite, relevant), initial=0.0) <= eps,
            f"{det_path}: a threshold is no probe's score")
    require(np.max(gaps(relevant, finite)) <= eps,
            f"{det_path}: a probe's score is no threshold")
    # FPIR(t) = #(impostor best >= t) / n, FNIR(t) = 1 - #(true score >= t) / n;
    # a score within eps of t may fall on either side of it
    for name, group, share in (("FPIR", impostor, fpir), ("FNIR", true, 1.0 - fnir)):
        count = share * group.size
        least = det_counts(group, thresholds + eps)
        most = det_counts(group, thresholds - eps)
        bad = (count < least - 1e-9) | (count > most + 1e-9)
        require(not bad.any(), f"{det_path}: {name} at {thresholds[bad][:1]} disagrees")

    # the DET rows are checked above, so the operating points follow from them
    expected = {"rank1": recall[0], "rank5": recall[min(4, recall.size - 1)]}
    for target in FNIR_TARGETS:
        expected[f"fnir_at_fpir_{target}"] = fnir_at(fpir, fnir, target)
    for key, value in expected.items():
        require(key in summary and abs(summary[key] - value) <= 1e-12,
                f"summary {key} = {summary.get(key)}, recomputed {value!r}")


def check_summary_aggregate(summary, splits):
    require(sorted(summary["splits"]) == sorted(str(s) for s in splits),
            "summary.json splits")
    for stat, fn in (("mean", np.mean), ("std", np.std)):
        for key in summary[stat]:
            values = [summary["splits"][str(s)][key] for s in splits]
            require(abs(summary[stat][key] - float(fn(values))) <= 1e-12,
                    f"summary {stat} {key} is not the {stat} over splits")


# ------------------------------------------------------------ finetune


def conv_relu(patches, kernel, bias):
    """Valid, stride-1 cross-correlation of (n, H, W, C) patches + ReLU."""
    k = kernel.shape[0]
    n, h, w, _ = patches.shape
    out = np.zeros((n, h - k + 1, w - k + 1, kernel.shape[3]))
    for i in range(k):
        for j in range(k):
            out += patches[:, i:i + h - k + 1, j:j + w - k + 1, :] @ kernel[i, j]
    return np.maximum(out + bias, 0.0)


def check_finetune(ft_dir, train_templates, epochs):
    ft_dir = Path(ft_dir)
    trace = json.loads((ft_dir / "loss_trace.json").read_text())
    require(len(trace) == epochs + 1, f"loss trace has {len(trace)} entries, not {epochs + 1}")
    require(all(math.isfinite(x) for x in trace), "loss trace is not finite")
    templates = sorted(train_templates, key=lambda t: t.template_id)
    classes = sorted({t.subject_id for t in templates})
    require(json.loads((ft_dir / "classes.json").read_text()) == classes,
            "classes.json is not the sorted train subjects")
    raw = np.stack([read_bfm(p) for t in templates for p in t.paths]).astype(np.float64)
    lo = raw.min(axis=(1, 2, 3), keepdims=True)
    hi = raw.max(axis=(1, 2, 3), keepdims=True)
    patches = np.where(hi > lo, (raw - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    labels = np.array([classes.index(t.subject_id) for t in templates for _ in t.paths])
    load = lambda name: np.load(ft_dir / name, allow_pickle=False)  # noqa: E731
    fmap = conv_relu(patches, load("extractor_kernel.npy"), load("extractor_bias.npy"))
    logits = encode(fmap) @ load("head_weights.npy").T + load("head_bias.npy")
    top = logits.max(axis=1, keepdims=True)
    logp = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(labels.size), labels].mean())
    require(abs(loss - trace[-1]) <= LOSS_RTOL * max(1.0, abs(loss)),
            f"clean loss {loss!r} != last trace entry {trace[-1]!r}")


# ------------------------------------------------------------ the run


def check_outputs(data, out, workload):
    """Every check on the outputs under ``out`` of one round on ``data``."""
    data, out = Path(data), Path(out)
    splits = read_metadata(data / "metadata.csv")
    require(len(splits) == workload.splits, f"{len(splits)} splits in metadata")
    c = int(workload.map_dims.split("x")[2])
    summary = json.loads((out / "res" / "summary.json").read_text())
    for s, roles in splits.items():
        gallery = read_bgm(out / "models" / f"gallery_s{s:02d}.bgm")
        check_gallery(gallery, roles["gallery"], c * c)
        check_split_eval(gallery, roles["probe"], workload.pooling,
                         out / "res" / f"cmc_s{s:02d}.csv",
                         out / "res" / f"det_s{s:02d}.csv",
                         summary["splits"][str(s)])
    check_summary_aggregate(summary, sorted(splits))
    # finetune trains on split 1, the CLI default
    check_finetune(out / "ft", splits[1]["train"], workload.finetune_epochs)
    for name in ("cmc.svg", "det.svg"):
        text = (out / "charts" / name).read_text(encoding="utf-8")
        require(text.startswith("<svg") and text.rstrip().endswith("</svg>"),
                f"charts/{name} is not an SVG document")
