"""Open-set 1:N evaluation against a gallery model set.

A probe template holds one or more media.  Two pooling strategies
collapse it to one score per gallery identity:

* score pooling: score every medium, then take the per-identity max;
* feature pooling: elementwise max over the media descriptors first,
  then a single scoring pass (the pooled vector is deliberately not
  re-normalized, so scores stay on the scale the models were trained on).

A split's pooled scores form one (templates, identities) matrix, which
score_templates fills a block of whole templates at a time: the CLI
streams each block's probe rows from the descriptor store into one
reused buffer, and evaluate_split stacks them from a media_id dict.
A block pools all its templates at once, with ``np.maximum.reduceat``
over their first rows: after one scoring pass over the block (score
pooling), or before one pass per template (feature pooling).
identify is the one-template case.
Three arrays of the matrix give the open-set curves: CMC (recall of the true
identity within the top r ranks, mated probes only), and DET (false
positive identification rate of impostors versus false negative
identification rate of mated probes as the acceptance threshold sweeps).
FNIR here follows the literal reading "true identity's score below
threshold"; ``rank1_conditioned`` additionally counts mated probes whose
true identity is not ranked first, a variant some evaluation reports use.
"""

import csv
import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError

# Eval's block budget: a block holds the float32 probe rows of whole
# templates within this many bytes, and a larger template goes alone.
# A block of small rows spreads the per-block Python work over many
# templates; a larger budget buys no time, only peak memory.
EVAL_BLOCK_BYTES = 1 << 18
# The most ranks a CMC curve reports: the curve holds one recall per
# rank, so a larger max_rank is a ConfigError before it is allocated.
MAX_RANK = 1 << 20


@dataclass
class ProbeResult:
    """One probe template's id -> score dict and its ids, best first;
    the curves accept a list of these as well as ProbeRanks."""

    template_id: str
    subject_id: str
    scores: dict
    ranked: list


# All the curves read of a split's probes: the true identity's 1-based
# rank and its score, one entry per mated probe, and each impostor's best.
ProbeRanks = namedtuple("ProbeRanks", "rank true_score impostor_best")


def _ranks_of(results):
    """The ProbeRanks of a ProbeResult list; ProbeRanks pass through."""
    if isinstance(results, ProbeRanks):
        return results
    mated = [r for r in results if r.subject_id in r.scores]
    return ProbeRanks(np.array([r.ranked.index(r.subject_id) + 1 for r in mated]),
                      np.array([r.scores[r.subject_id] for r in mated]),
                      np.array([max(r.scores.values()) for r in results
                                if r.subject_id not in r.scores]))


def rank_scores(scores, subject_ids, identity_ids):
    """ProbeRanks of a (templates, k) score matrix: row i scores a probe
    of ``subject_ids[i]``, column j the identity ``identity_ids[j]``.
    The ids ascend and a tie goes to the lower id, so the true rank is 1
    + the ids scoring above the true score + those tied with it before."""
    column = {ident: j for j, ident in enumerate(identity_ids)}
    true_col = np.array([column.get(s, -1) for s in subject_ids], dtype=np.intp)
    mated = true_col >= 0
    rows, cols = scores[mated], true_col[mated]
    true = rows[np.arange(len(rows)), cols][:, None]
    ahead = (rows > true) | ((rows == true) & (np.arange(rows.shape[1]) < cols[:, None]))
    return ProbeRanks(1 + ahead.sum(axis=1), true[:, 0],
                      scores[~mated].max(axis=1, initial=-np.inf))


def identify(template, descriptors, gallery, strategy="score"):
    """Pooled scores of one probe template, shape (k,); entry j scores
    ``gallery.identity_ids[j]``.  ``descriptors``, a list or a (media, dim)
    stack, holds one descriptor per medium of ``template``, in order;
    ``strategy`` is "score" or "feature".  This is :func:`score_templates`
    on the one template.
    """
    if len(descriptors) != len(template.media):
        raise ProtocolError(f"template {template.template_id!r} has {len(template.media)} "
                            f"media but {len(descriptors)} descriptors")
    stack = np.asarray(descriptors)
    return score_templates([template], gallery, lambda lo, hi: stack[lo:hi], strategy)[0]


@dataclass
class CmcCurve:
    """recall_at_rank[r-1] = fraction of mated probes with true identity
    in the top r; non-decreasing in r."""

    recall_at_rank: np.ndarray
    mated_probe_count: int


def check_max_rank(max_rank):
    """Raise ConfigError unless ``max_rank`` lies in 1..MAX_RANK."""
    if not 1 <= max_rank <= MAX_RANK:
        raise ConfigError(f"max_rank must be between 1 and {MAX_RANK}, got {max_rank}")


def compute_cmc(results, max_rank=100):
    """CMC curve from ProbeRanks or a ProbeResult list, over ranks 1 to
    ``max_rank`` (at most MAX_RANK)."""
    check_max_rank(max_rank)
    ranks = _ranks_of(results).rank
    if not ranks.size:
        raise ProtocolError("CMC needs at least one mated probe")
    # recall at rank r: the share of mated probes whose true rank is <= r
    hits = np.searchsorted(np.sort(ranks), np.arange(1, max_rank + 1), side="right")
    return CmcCurve(recall_at_rank=hits / ranks.size, mated_probe_count=ranks.size)


@dataclass
class DetCurve:
    """FPIR/FNIR over a grid of acceptance thresholds (ascending)."""

    thresholds: np.ndarray
    fpir: np.ndarray
    fnir: np.ndarray


def compute_det(results, thresholds=None, rank1_conditioned=False):
    """DET curve from ProbeRanks or a ProbeResult list.

    FPIR(t) = fraction of impostor probes whose best score is >= t.
    FNIR(t) = fraction of mated probes whose true-identity score is
    below t (additionally counting true-identity-not-rank-1 probes when
    ``rank1_conditioned``).  Auto thresholds are the sorted union of
    every relevant score plus -inf/+inf sentinels, so the curve starts
    at FPIR=1 and ends at FNIR=1.
    """
    rank, true_scores, impostor_best = _ranks_of(results)
    if impostor_best.size == 0 or true_scores.size == 0:
        raise ProtocolError("DET needs at least one impostor and one mated probe")
    if thresholds is None:
        grid = np.unique(np.concatenate([impostor_best, true_scores, [-np.inf, np.inf]]))
    else:
        grid = np.asarray(sorted(thresholds), dtype=np.float64)

    # searchsorted on sorted scores counts the scores below each threshold
    false_alarms = impostor_best.size - np.searchsorted(np.sort(impostor_best), grid)
    counted, missed = true_scores, 0
    if rank1_conditioned:
        # a true identity outranked by another is a miss at every threshold
        first = rank == 1
        counted, missed = true_scores[first], int((~first).sum())
    misses = missed + np.searchsorted(np.sort(counted), grid)
    return DetCurve(thresholds=grid, fpir=false_alarms / impostor_best.size,
                    fnir=misses / true_scores.size)


def fnir_at_fpir(curve, target_fpir):
    """FNIR at the smallest threshold whose FPIR does not exceed target.

    When the target falls strictly between two achievable FPIR steps,
    FNIR is linearly interpolated between the bracketing points.
    """
    if not 0.0 <= target_fpir <= 1.0:
        raise ValueError("target FPIR must lie in [0, 1]")
    fpir, fnir = curve.fpir, curve.fnir
    if fpir.size == 0:
        raise ProtocolError("empty DET curve")
    # fpir does not rise along ascending thresholds: find its first point <= target
    qualifying = fpir <= target_fpir
    if not qualifying.any():
        raise ProtocolError(f"no threshold on the curve attains FPIR <= {target_fpir}; "
                            f"auto grids include a +inf sentinel that always does")
    idx = int(np.argmax(qualifying))
    if fpir[idx] == target_fpir or idx == 0:
        return float(fnir[idx])
    frac = (fpir[idx - 1] - target_fpir) / (fpir[idx - 1] - fpir[idx])
    return float(fnir[idx - 1] + frac * (fnir[idx] - fnir[idx - 1]))


def probe_templates(split):
    """A split's probe templates in template-id order, the row order of
    its score matrix, so the matrix is deterministic."""
    return sorted(split.probe, key=lambda t: t.template_id)


def score_templates(templates, gallery, read, strategy="score"):
    """The (templates, k) matrix of pooled scores, row i for ``templates[i]``.

    ``read(lo, hi)`` gives the descriptors of media ``lo:hi``, counted
    over the media of ``templates`` in order, as one (hi - lo, dim)
    array.  It is called once per block: a run of whole templates whose
    media fit EVAL_BLOCK_BYTES as float32 rows of the gallery's dim, or
    one template alone when it does not fit.  A template with no media
    is a ProtocolError before anything is read.  Score pooling scores
    the block in one ``score_vector`` call and takes each template's
    per-identity max over its rows; feature pooling takes each
    template's elementwise max over its rows and scores it alone.
    """
    if strategy not in ("score", "feature"):
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    if not gallery.identity_ids:
        raise ProtocolError("gallery model set is empty")
    sizes = np.array([len(t.media) for t in templates], dtype=np.intp)
    if not sizes.all():
        empty = templates[int(np.argmin(sizes))].template_id
        raise ProtocolError(f"probe template {empty!r} is empty: it has no media")
    ends = np.cumsum(sizes)  # one past each template's last medium
    per_block = max(1, EVAL_BLOCK_BYTES // (4 * gallery.descriptor_dim))
    scores = np.empty((len(templates), len(gallery.identity_ids)))
    first = lo = 0
    while first < len(templates):
        last = max(first + 1, int(np.searchsorted(ends, lo + per_block, side="right")))
        hi = int(ends[last - 1])
        block = read(lo, hi)
        starts = ends[first:last] - sizes[first:last] - lo  # each template's first row
        if strategy == "score":
            # a stack's rows score with the bits of each row scored alone
            scores[first:last] = np.maximum.reduceat(gallery.score_vector(block), starts)
        else:  # one scoring pass per pooled template
            for i, pooled in enumerate(np.maximum.reduceat(block, starts), start=first):
                scores[i] = gallery.score_vector(pooled)
        first, lo = last, hi
    return scores


def split_curves(scores, templates, gallery, max_rank=100, rank1_conditioned=False):
    """(cmc, det, summary) of a split's score matrix, whose row i scores
    ``templates[i]``; summary holds rank1, rank5 and FNIR at the two
    standard FPIR operating points."""
    ranks = rank_scores(scores, [t.subject_id for t in templates], gallery.identity_ids)
    cmc = compute_cmc(ranks, max_rank=max_rank)
    det = compute_det(ranks, rank1_conditioned=rank1_conditioned)
    summary = {
        "rank1": float(cmc.recall_at_rank[0]),
        "rank5": float(cmc.recall_at_rank[min(4, max_rank - 1)]),
        "fnir_at_fpir_0.1": fnir_at_fpir(det, 0.1),
        "fnir_at_fpir_0.01": fnir_at_fpir(det, 0.01),
    }
    return cmc, det, summary


def evaluate_split(split, gallery, descriptors, strategy="score",
                   max_rank=100, rank1_conditioned=False):
    """Identify every probe template of a split and compute both curves.

    ``descriptors`` maps media_id to a descriptor vector; each block of
    :func:`score_templates` stacks its rows from it.  Returns (scores,
    cmc, det, summary), as :func:`score_templates` and
    :func:`split_curves` give them.
    """
    templates = probe_templates(split)
    media = [(t, m) for t in templates for m in t.media]

    def read(lo, hi):
        rows = []
        for template, medium in media[lo:hi]:
            if medium.media_id not in descriptors:
                raise ProtocolError(f"probe template {template.template_id!r}: no "
                                    f"descriptor for medium {medium.media_id!r}")
            rows.append(np.asarray(descriptors[medium.media_id]))
        shapes = sorted({r.shape for r in rows})
        if len(shapes) > 1:
            raise ShapeError(f"descriptor shapes differ: {shapes}")
        return np.stack(rows)

    scores = score_templates(templates, gallery, read, strategy)
    return (scores, *split_curves(scores, templates, gallery, max_rank, rank1_conditioned))


SUMMARY_KEYS = ("rank1", "rank5", "fnir_at_fpir_0.1", "fnir_at_fpir_0.01")


def aggregate_summaries(per_split):
    """Combine per-split summaries into mean and standard deviation.

    ``per_split`` maps split index to a summary dict.  The deviation is
    the population standard deviation, so a single split reports 0.
    """
    if not per_split:
        raise ProtocolError("no split summaries to aggregate")
    out = {"splits": {str(k): per_split[k] for k in sorted(per_split)}}
    for name, stat in (("mean", np.mean), ("std", np.std)):
        out[name] = {key: float(stat([s[key] for s in per_split.values()]))
                     for key in SUMMARY_KEYS}
    return out


def write_cmc_csv(curve, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "recall"])
        for rank, recall in enumerate(curve.recall_at_rank, start=1):
            writer.writerow([rank, repr(float(recall))])


def write_det_csv(curve, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["threshold", "fpir", "fnir"])
        for t, fp, fn in zip(curve.thresholds, curve.fpir, curve.fnir):
            writer.writerow([repr(float(t)), repr(float(fp)), repr(float(fn))])


def write_summary_json(summary, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
