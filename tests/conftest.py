"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately written as plain loops so they share
no code path with the library: pooling as an explicit per-location
outer-product sum, convolution as a six-deep loop (and its gradients as
loops over output positions and taps), and the rank metrics
as direct counting over probe results, the metadata reader as one
``csv.DictReader`` dict per row.  The fine-tuning oracle runs one
sample at a time through the public per-map functions, with the
encoder's normalisation and its backward written out.

The two-map backward chain (``bilinear_pool_backward``,
``l2_normalize_backward``, ``encode_backward``) is the gradient of
``encode(a, b)`` for two independent streams, one vector at a time.  It
stays in matrix form: the library's symmetric backward pass must equal
its two gradients summed, bit for bit.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from bilin.encoder import bilinear_pool, signed_sqrt, signed_sqrt_backward
from bilin.errors import MetadataError, ShapeError
from bilin.extractor import ConvParams, conv_forward, conv_param_grads
from bilin.finetune import MIN_IMPROVEMENT
from bilin.protocol import (CSV_COLUMNS, KINDS, MEDIA_ID_PATTERN, ROLES, MediaItem, Split,
                            Template)


def pool_oracle(a, b):
    """Triple-loop outer-product pooling."""
    h, w, ca = a.shape
    cb = b.shape[2]
    out = np.zeros((ca, cb))
    for loc in range(h * w):
        va = a.reshape(-1, ca)[loc]
        vb = b.reshape(-1, cb)[loc]
        for i in range(ca):
            for j in range(cb):
                out[i, j] += va[i] * vb[j]
    return out


def bilinear_pool_backward(a, b, g_out):
    """Gradients of ``bilinear_pool(a, b)`` w.r.t. both maps: per location
    ``l``, ``g_a[l] = g_out @ b[l]`` and ``g_b[l] = g_out.T @ a[l]``."""
    g = np.asarray(g_out, dtype=np.float64)
    if g.shape != (a.shape[2], b.shape[2]):
        raise ShapeError(f"upstream gradient shape {g.shape} does not match "
                         f"({a.shape[2]}, {b.shape[2]})")
    g_a = (b.reshape(-1, b.shape[2]) @ g.T).reshape(a.shape)
    g_b = (a.reshape(-1, a.shape[2]) @ g).reshape(b.shape)
    return g_a, g_b


def l2_normalize_backward(v, g):
    """Backward pass of ``l2_normalize``, ``v`` flattened to one vector:
    ``(g - z * (z . g)) / |v|`` with ``z = v / |v|``, and 0 at ``v = 0``."""
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if v.shape != g.shape:
        raise ShapeError(f"value/gradient shapes differ: {v.shape} vs {g.shape}")
    flat, g_flat = v.reshape(-1), g.reshape(-1)
    norm = np.sqrt(np.dot(flat, flat))
    if norm == 0.0:
        return np.zeros_like(v)
    z = flat / norm
    return ((g_flat - z * np.dot(z, g_flat)) / norm).reshape(v.shape)


def encode_backward(a, b, g_desc):
    """Gradients of ``encode(a, b)`` w.r.t. both maps, the forward pass
    recomputed and the three backward passes chained."""
    pooled = bilinear_pool(a, b)
    x = pooled.reshape(-1)
    g_y = l2_normalize_backward(signed_sqrt(x), g_desc)
    return bilinear_pool_backward(a, b, signed_sqrt_backward(x, g_y).reshape(pooled.shape))


def conv_oracle(x, params):
    """Loop convolution (cross-correlation) + bias + ReLU."""
    k = params.kernel.shape[0]
    s = params.stride
    pad = params.padding
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    out_h = (x.shape[0] + 2 * pad - k) // s + 1
    out_w = (x.shape[1] + 2 * pad - k) // s + 1
    c_out = params.kernel.shape[3]
    out = np.zeros((out_h, out_w, c_out))
    for i in range(out_h):
        for j in range(out_w):
            for co in range(c_out):
                acc = params.bias[co]
                for ki in range(k):
                    for kj in range(k):
                        for ci in range(x.shape[2]):
                            acc += xp[i * s + ki, j * s + kj, ci] * \
                                params.kernel[ki, kj, ci, co]
                out[i, j, co] = max(acc, 0.0)
    return out


def conv_grad_oracle(x, params, g_out):
    """Loop gradients of ``(conv_oracle(x, params) * g_out).sum()`` w.r.t.
    the patch, kernel and bias: each output position's pre-activation is
    summed tap by tap, and where it is positive its upstream gradient goes
    back through each tap to the kernel and the padded patch."""
    k = params.kernel.shape[0]
    s = params.stride
    pad = params.padding
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    out_h, out_w, c_out = g_out.shape
    g_xp = np.zeros_like(xp)
    g_kernel = np.zeros_like(params.kernel)
    g_bias = np.zeros(c_out)
    for i in range(out_h):
        for j in range(out_w):
            for co in range(c_out):
                pre = params.bias[co]
                for ki in range(k):
                    for kj in range(k):
                        pre += xp[i * s + ki, j * s + kj] @ params.kernel[ki, kj, :, co]
                if pre <= 0.0:
                    continue
                g = g_out[i, j, co]
                g_bias[co] += g
                for ki in range(k):
                    for kj in range(k):
                        g_kernel[ki, kj, :, co] += g * xp[i * s + ki, j * s + kj]
                        g_xp[i * s + ki, j * s + kj] += g * params.kernel[ki, kj, :, co]
    return g_xp[pad : pad + x.shape[0], pad : pad + x.shape[1]], g_kernel, g_bias


def cmc_oracle(results, max_rank):
    """Direct rank counting over mated probes."""
    mated = [r for r in results if r.subject_id in r.scores]
    recall = []
    for rank in range(1, max_rank + 1):
        hits = 0
        for r in mated:
            top = r.ranked[:rank]
            if r.subject_id in top:
                hits += 1
        recall.append(hits / len(mated))
    return np.array(recall), len(mated)


def det_oracle(results, thresholds):
    """Direct FPIR/FNIR counting at each threshold."""
    impostors = [r for r in results if r.subject_id not in r.scores]
    mated = [r for r in results if r.subject_id in r.scores]
    fpir, fnir = [], []
    for t in thresholds:
        false_alarms = sum(
            1 for r in impostors if max(r.scores.values()) >= t
        )
        misses = sum(1 for r in mated if r.scores[r.subject_id] < t)
        fpir.append(false_alarms / len(impostors))
        fnir.append(misses / len(mated))
    return np.array(fpir), np.array(fnir)


def score_matrix_oracle(templates, gallery, descriptors, strategy):
    """The (templates, k) pooled scores of one medium at a time, looked up
    by media id: one ``score_vector`` call per descriptor under score
    pooling, the max of the list under feature pooling."""
    rows = []
    for t in templates:
        descs = [np.asarray(descriptors[m.media_id]) for m in t.media]
        if strategy == "score":
            rows.append(np.max([gallery.score_vector(d) for d in descs], axis=0))
        else:
            rows.append(gallery.score_vector(np.maximum.reduce(descs)))
    return np.array(rows)


def random_probe_results(rng, n_identities=None, n_probes=None):
    """A random open-set result list with at least one impostor and one
    mated probe."""
    from bilin.evaluate import ProbeResult

    if n_identities is None:
        n_identities = int(rng.integers(2, 11))
    if n_probes is None:
        n_probes = int(rng.integers(2, 21))
    gallery_ids = [f"g{i:02d}" for i in range(n_identities)]
    results = []
    for p in range(n_probes):
        if p == 0 or (p > 1 and rng.random() < 0.4):
            subject = f"imp{p:02d}"
        elif p == 1:
            subject = gallery_ids[int(rng.integers(n_identities))]
        else:
            subject = gallery_ids[int(rng.integers(n_identities))]
        scores = {g: float(np.round(rng.normal(), 3)) for g in gallery_ids}
        ranked = sorted(scores, key=lambda k: (-scores[k], k))
        results.append(ProbeResult(f"t{p:03d}", subject, scores, ranked))
    return results


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_conv(seed, k=2, c_in=3, c_out=3, bias_lo=0.3, bias_hi=0.6):
    """Random conv params with a positive bias, keeping units active."""
    r = np.random.default_rng(seed)
    kernel = r.normal(0.0, np.sqrt(2.0 / (k * k * c_in)), (k, k, c_in, c_out))
    bias = r.uniform(bias_lo, bias_hi, c_out)
    return ConvParams(kernel=kernel, bias=bias)


def hinge_objective(w, b, X, y, reg_c, weights=None):
    """Value of 0.5*||w||^2 + 0.5*b^2 + C * sum of weighted hinge losses."""
    margins = y * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    if weights is not None:
        hinge = hinge * weights
    return 0.5 * (float(w @ w) + float(b) ** 2) + reg_c * float(hinge.sum())


def read_metadata_oracle(path):
    """``read_metadata`` as a ``csv.DictReader`` reads the file, one dict
    per row, without the file checks.  A short row leaves its missing
    cells at ``restval``; the header's last column is the last of its
    name, so one of them is always a cell the reader needs.  A row the
    csv module cannot parse ends the rows, and stands as an error at its
    line once the rows before it are checked and the rest is decoded."""
    path = Path(path)
    missing = object()
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f, restval=missing)
            try:
                fieldnames = reader.fieldnames
            except csv.Error as exc:  # DictReader.line_num lags a failed read
                raise MetadataError(f"{path}:{reader.reader.line_num}: {exc}") from None
            if fieldnames is None or set(fieldnames) != set(CSV_COLUMNS):
                raise MetadataError(
                    f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
                )
            rows = []
            try:
                for row in reader:
                    rows.append((reader.line_num, row))
            except csv.Error as exc:
                rows.append((reader.reader.line_num, exc))
                f.read()
    except UnicodeDecodeError:
        raise MetadataError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise MetadataError(f"{path}: no media rows")

    splits = {}
    seen_media = set()
    template_role = {}
    templates = {}
    for lineno, row in rows:
        if isinstance(row, csv.Error):
            raise MetadataError(f"{path}:{lineno}: {row}")
        if any(cell is missing for cell in row.values()):
            raise MetadataError(f"{path}:{lineno}: row has fewer cells than the header")
        try:
            split_index = int(row["split_index"])
        except ValueError:
            raise MetadataError(
                f"{path}:{lineno}: bad split_index {row['split_index']!r}"
            ) from None
        role = row["role"]
        if role not in ROLES:
            raise MetadataError(f"{path}:{lineno}: unknown role {role!r}")
        kind = row["kind"]
        if kind not in KINDS:
            raise MetadataError(f"{path}:{lineno}: unknown kind {kind!r}")
        media_id = row["media_id"]
        if not media_id or media_id in seen_media:
            raise MetadataError(f"{path}:{lineno}: duplicate media_id {media_id!r}")
        if not MEDIA_ID_PATTERN.fullmatch(media_id) or set(media_id) == {"."}:
            raise MetadataError(
                f"{path}:{lineno}: media_id {media_id!r} is not filename-safe"
            )
        if "\x00" in row["path"]:
            raise MetadataError(f"{path}:{lineno}: path {row['path']!r} holds a NUL byte")
        seen_media.add(media_id)

        split = splits.setdefault(split_index, Split(split_index=split_index))
        key = (split_index, row["template_id"])
        template = templates.get(key)
        if template is None:
            template = Template(row["template_id"], row["subject_id"])
            templates[key] = template
            template_role[key] = role
            split.templates(role).append(template)
        else:
            if template.subject_id != row["subject_id"]:
                raise MetadataError(
                    f"{path}:{lineno}: template {row['template_id']!r} spans "
                    f"subjects {template.subject_id!r} and {row['subject_id']!r}"
                )
            if template_role[key] != role:
                raise MetadataError(
                    f"{path}:{lineno}: template {row['template_id']!r} spans "
                    f"roles {template_role[key]!r} and {role!r}"
                )
        template.media.append(
            MediaItem(media_id, kind, row["path"], row["template_id"])
        )
    return [splits[i] for i in sorted(splits)]


def _log_softmax(logits):
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def _sample_descriptor(patch, extractor):
    """Feature map, pooled vector, signed root, norm and descriptor."""
    fmap = conv_forward(patch, extractor)
    x = bilinear_pool(fmap).reshape(-1)
    y = signed_sqrt(x)
    norm = float(np.linalg.norm(y))
    return fmap, x, y, norm, (y / norm if norm != 0.0 else y)


def _encode_backward_shared(fmap, x, y, norm, g_desc):
    if norm == 0.0:
        g_y = np.zeros_like(y)
    else:
        z = y / norm
        g_y = (g_desc - z * float(z @ g_desc)) / norm
    g_x = signed_sqrt_backward(x, g_y)
    g_a, g_b = bilinear_pool_backward(fmap, fmap, g_x.reshape(fmap.shape[2], -1))
    return g_a + g_b


def _mean_loss_and_error(patches, labels, extractor, head):
    total = 0.0
    wrong = 0
    for patch, label in zip(patches, labels):
        desc = _sample_descriptor(patch, extractor)[-1]
        logp = _log_softmax(head.weights @ desc + head.bias)
        total += -float(logp[label])
        if int(np.argmax(logp)) != label:
            wrong += 1
    n = len(labels)
    return total / n, wrong / n


def finetune_oracle(extractor, head, patches, labels, cfg,
                    val_patches=None, val_labels=None):
    """``finetune_softmax`` one sample at a time, for valid inputs: every
    forward and backward pass, and every sum, runs per sample in order."""
    labels = [int(l) for l in labels]
    extractor = extractor.copy()
    head = head.copy()
    rng = np.random.default_rng(cfg.seed)
    lr_lower, lr_last = cfg.lr_lower, cfg.lr_last
    keep = 1.0 - cfg.dropout_rate

    loss0, _ = _mean_loss_and_error(patches, labels, extractor, head)
    trace = [loss0]
    best_val_err = np.inf
    stall = 0

    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            g_w = np.zeros_like(head.weights)
            g_b = np.zeros_like(head.bias)
            g_kernel = np.zeros_like(extractor.kernel)
            g_bias = np.zeros_like(extractor.bias)
            for i in batch:
                fmap, x, y, norm, desc = _sample_descriptor(patches[i], extractor)
                if cfg.dropout_rate > 0.0:
                    mask = (rng.random(desc.shape) >= cfg.dropout_rate) / keep
                    dropped = desc * mask
                else:
                    mask = None
                    dropped = desc
                logp = _log_softmax(head.weights @ dropped + head.bias)
                g_logits = np.exp(logp)
                g_logits[labels[i]] -= 1.0
                g_w += np.outer(g_logits, dropped)
                g_b += g_logits
                g_desc = head.weights.T @ g_logits
                if mask is not None:
                    g_desc = g_desc * mask
                g_fmap = _encode_backward_shared(fmap, x, y, norm, g_desc)
                g_k, g_cb = conv_param_grads(patches[i], extractor, fmap, g_fmap)
                g_kernel += g_k
                g_bias += g_cb
            scale = 1.0 / len(batch)
            head.weights -= lr_last * scale * g_w
            head.bias -= lr_last * scale * g_b
            extractor.kernel -= lr_lower * scale * g_kernel
            extractor.bias -= lr_lower * scale * g_bias

        epoch_loss, val_err = _mean_loss_and_error(patches, labels, extractor, head)
        trace.append(epoch_loss)
        if val_patches is not None:
            _, val_err = _mean_loss_and_error(val_patches, val_labels, extractor, head)
        if val_err < best_val_err - MIN_IMPROVEMENT:
            best_val_err = val_err
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                lr_lower /= cfg.lr_decay_factor
                lr_last /= cfg.lr_decay_factor
                stall = 0

    return extractor, head, trace
