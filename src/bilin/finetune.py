"""Desk-scale fine-tuning of the extractor + descriptor + softmax stack.

Each labeled sample is a patch in [0, 1].  The forward pass is:
conv_forward -> symmetric bilinear encoding -> (dropout, training only)
-> affine softmax head -> cross-entropy.  Two learning-rate groups are
maintained: ``lr_lower`` for the extractor and ``lr_last`` for the
head; both are divided by ``lr_decay_factor`` whenever the validation
error rate fails to improve by more than MIN_IMPROVEMENT for
``patience`` consecutive epochs.

The samples are a plain sequence of patches, or :class:`MapPatches`,
which is how the CLI holds them: each train map's path, header and
min-max range, but no values.  Each chunk that runs reads its maps
again, into one reused float32 stack (see :class:`~bilin.io.MapReader`),
and forms its float64 patches from them in one pass, with the
arithmetic of :func:`~bilin.extractor.ingest_patch` and so with its
bits; no map or patch outlives its chunk, so peak memory is one
chunk's, however many maps there are.

Dropout is inverted (activations scaled by 1/(1-rate) while training),
so evaluation applies the learned weights unchanged and is fully
deterministic.

Samples run in stacked passes.  Each training mini-batch, and each
clean loss pass, is cut into chunks: runs of consecutive samples with
one patch shape, as many as keep each stacked array (patches, conv tap
products, descriptors, kernel gradients) within STACK_BYTES.  A chunk goes
through conv, encoding, head and back as one ``(n, H, W, C)`` array, a
chunk of one included (a sample with an array larger than half the
budget always runs alone).  Every per-sample result has the bits of
that sample run alone, the backward pass reuses the forward pass's
pooled matrix, norm and descriptor, and the gradients and the loss are
summed in sample order, so the results do not depend on the chunking:
they are byte-identical to one sample at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .encoder import encode_shared
from .errors import DataError, DivergenceError, ShapeError
from .extractor import conv_forward, conv_param_grads, scale_patches

# Absolute validation-error improvement below this counts as "no change"
# for the learning-rate schedule.
MIN_IMPROVEMENT = 1e-4

# Bytes of one sample's largest array (see _sample_bytes) that one stacked
# pass may hold.  A chunk holds a few arrays of this size per sample at
# once, so a larger budget buys fewer Python-level passes with peak
# memory; a sample larger than half the budget runs alone.  For small
# patches the largest array is the conv's tap products, one row of
# k * k * c_out per padded position: 1296 floats for a 6x6x16 patch at
# k = 3 and 4 channels, so that 12 such samples share a pass.
STACK_BYTES = 1 << 17

# Standard deviation of the softmax head's normal initial weights.
HEAD_INIT_STD = 0.01


@dataclass
class SoftmaxHead:
    """Affine classification head over descriptors.

    weights : (n_classes, dim) array
    bias    : (n_classes,) array
    """

    weights: np.ndarray
    bias: np.ndarray

    @property
    def n_classes(self):
        return self.weights.shape[0]

    def copy(self):
        return SoftmaxHead(self.weights.copy(), self.bias.copy())


def init_softmax_head(n_classes, dim, seed=0):
    if n_classes < 2:
        raise DataError("softmax head needs at least 2 classes")
    rng = np.random.default_rng(seed)
    return SoftmaxHead(
        weights=rng.normal(0.0, HEAD_INIT_STD, size=(n_classes, dim)),
        bias=np.zeros(n_classes),
    )


@dataclass
class TrainConfig:
    lr_lower: float = 0.001
    lr_last: float = 0.01
    lr_decay_factor: float = 10.0
    epochs: int = 30
    dropout_rate: float = 0.5
    batch_size: int = 8
    seed: int = 0
    patience: int = 3

    def validate(self):
        rates = (self.lr_lower, self.lr_last)
        if not (np.isfinite(rates).all() and min(rates) >= 0):
            raise DataError("learning rates must be finite and non-negative")
        if not (np.isfinite(self.lr_decay_factor) and self.lr_decay_factor > 1):
            raise DataError("lr_decay_factor must be finite and exceed 1")
        if not 0 <= self.dropout_rate < 1:
            raise DataError("dropout_rate must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be positive")
        if self.patience < 1:
            raise DataError("patience must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")


def _log_softmax(logits):
    """Row-wise log-softmax of (n, n_classes) logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _logits(head, desc):
    """(n, n_classes) logits of (n, dim) descriptors, one gemv per row."""
    return np.matmul(head.weights, desc[:, :, None])[:, :, 0] + head.bias


def _sample_bytes(shape, extractor):
    """Bytes of the largest float64 array that one sample of patch shape
    ``shape`` adds to a stacked pass: its patch, its pooled matrix (and
    descriptor), its kernel gradient, or its conv tap products (and the
    gradient's spread over the taps), one row of ``k * k * c_out`` per
    position of the padded patch, which is never smaller than its
    feature map."""
    k, _, _, c_out = extractor.kernel.shape
    pad = 2 * extractor.padding
    return 8 * max(math.prod(shape), c_out * c_out, extractor.kernel.size,
                   (shape[0] + pad) * (shape[1] + pad) * k * k * c_out)


@dataclass
class MapPatches:
    """The patches of the .bfm maps that ``files`` names: patch ``i`` is
    ``(map_i - lo[i]) / span[i]`` in float64, formed only while a chunk
    that holds it runs.  Each chunk's maps are read again when it runs,
    into the one reused stack of ``reader``, so no map outlives its chunk.

    files : list of :class:`~bilin.io.MapFile` records
    lo, span : (n,) float64 arrays, the ranges of
        :func:`~bilin.extractor.ingest_range`, so the patches have the
        bits of :func:`~bilin.extractor.ingest_patch`
    reader : :class:`~bilin.io.MapReader`
    """

    files: list
    lo: np.ndarray
    span: np.ndarray
    reader: object

    def __len__(self):
        return len(self.files)

    def chunk(self, run):
        """The ``(n, H, W, C)`` float64 patches of the samples ``run``."""
        maps = self.reader.reread([self.files[i] for i in run])
        lo, span = (a[run].reshape(-1, 1, 1, 1) for a in (self.lo, self.span))
        return scale_patches(maps, lo, span)


def _chunks(patches, indices, extractor):
    """Runs of consecutive samples that share a patch shape, read from
    each patch (or from its MapFile record), and together hold at most
    STACK_BYTES in each per-sample array (or one sample whose arrays are
    larger)."""
    samples = patches.files if isinstance(patches, MapPatches) else patches
    run, shape, room = [], None, 0
    for i in indices:
        patch_shape = np.shape(samples[i])
        if len(patch_shape) != 3:  # a stack of 2-D patches would pass for one patch
            raise ShapeError(f"patch {i}: expected (H, W, C), got shape {patch_shape}")
        if run and (patch_shape != shape or len(run) == room):
            yield run
            run = []
        if not run:
            shape = patch_shape
            room = max(1, STACK_BYTES // _sample_bytes(shape, extractor))
        run.append(i)
    if run:
        yield run


def _forward(patches, run, extractor):
    """Conv input, feature maps and encoding of one chunk, whose patches
    are one (n, H, W, C) float64 stack: formed from their maps, or
    plain patches stacked as they are."""
    if isinstance(patches, MapPatches):
        x = patches.chunk(run)
    else:
        x = np.stack([patches[i] for i in run], dtype=np.float64)
    fmap = conv_forward(x, extractor)
    return x, fmap, encode_shared(fmap)


def _add_in_order(total, terms):
    """Add each of ``terms`` to ``total`` in turn: the summation order of a
    loop over the samples, whatever the chunks."""
    for term in terms:
        total += term


def _labels_for(patches, labels, n_classes, name):
    """``labels`` as an int array, checked to be aligned with ``patches``,
    non-empty and in ``[0, n_classes)``."""
    labels = np.array([int(l) for l in labels], dtype=np.intp)
    if len(patches) != len(labels) or not len(labels):
        raise DataError(f"{name} patches and labels must be non-empty and aligned")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(f"{name} labels must lie in [0, {n_classes})")
    return labels


def mean_loss_and_error(patches, labels, extractor, head):
    """Clean (dropout-free) mean cross-entropy and error rate.

    Raises DataError unless ``labels`` is non-empty, aligned with
    ``patches`` and in ``[0, head.n_classes)``.
    """
    labels = _labels_for(patches, labels, head.n_classes, "evaluated")
    total = 0.0
    wrong = 0
    for run in _chunks(patches, range(len(labels)), extractor):
        _, _, enc = _forward(patches, run, extractor)
        logp = _log_softmax(_logits(head, enc.desc.reshape(len(run), -1)))
        y = labels[run]
        for loss in (-logp[np.arange(len(run)), y]).tolist():
            total += loss
        wrong += int(np.count_nonzero(logp.argmax(axis=1) != y))
    n = len(labels)
    return total / n, wrong / n


def _add_gradients(grads, patches, run, y, extractor, head, cfg, rng, trace):
    """Add one chunk's per-sample gradients to ``grads`` (head weights, head
    bias, kernel, conv bias), sample by sample."""
    g_w, g_b, g_kernel, g_bias = grads
    x, fmap, enc = _forward(patches, run, extractor)
    desc = enc.desc.reshape(len(run), -1)
    mask = None
    if cfg.dropout_rate > 0.0:
        mask = (rng.random(desc.shape) >= cfg.dropout_rate) / (1.0 - cfg.dropout_rate)
        desc = desc * mask
    logp = _log_softmax(_logits(head, desc))
    if not np.all(np.isfinite(logp)):
        raise DivergenceError("non-finite training loss", trace)
    g_logits = np.exp(logp)
    g_logits[np.arange(len(run)), y] -= 1.0
    _add_in_order(g_w, map(np.outer, g_logits, desc))
    _add_in_order(g_b, g_logits)
    g_desc = np.matmul(head.weights.T, g_logits[:, :, None])[:, :, 0]
    if mask is not None:
        g_desc = g_desc * mask
    g_fmap = enc.backward(g_desc.reshape(enc.desc.shape))
    g_k, g_cb = conv_param_grads(x, extractor, fmap, g_fmap)
    _add_in_order(g_kernel, g_k.reshape((-1,) + g_kernel.shape))
    _add_in_order(g_bias, g_cb.reshape(-1, g_bias.size))


def finetune_softmax(extractor, head, patches, labels, cfg,
                     val_patches=None, val_labels=None):
    """Mini-batch gradient descent on the full stack.

    Parameters
    ----------
    extractor : ConvParams (updated with lr_lower)
    head : SoftmaxHead (updated with lr_last)
    patches : sequence of (H, W, C) arrays in [0, 1], or MapPatches
    labels : sequence of ints in [0, head.n_classes)
    cfg : TrainConfig
    val_patches, val_labels : optional held-out set for the
        learning-rate plateau rule; the training set is used when absent.

    Returns
    -------
    (ConvParams, SoftmaxHead, loss_trace) where ``loss_trace[0]`` is the
    clean mean cross-entropy before training and ``loss_trace[e]`` the
    value after epoch ``e``.  The inputs are not mutated.

    Raises
    ------
    DataError : bad labels, an empty class, or a validation set that is
        half given, empty, misaligned or has labels out of range.
    NumericError : a patch gives a non-finite feature map.
    DivergenceError : the loss became non-finite (trace attached).
    """
    cfg.validate()
    n_classes = head.n_classes
    labels = _labels_for(patches, labels, n_classes, "training")
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        raise DataError(f"classes without samples: {np.where(counts == 0)[0].tolist()}")
    if (val_patches is None) != (val_labels is None):
        raise DataError("give both val_patches and val_labels, or neither")
    if val_patches is not None:
        val_labels = _labels_for(val_patches, val_labels, n_classes, "validation")

    extractor = extractor.copy()
    head = head.copy()
    rng = np.random.default_rng(cfg.seed)
    lr_lower, lr_last = cfg.lr_lower, cfg.lr_last

    loss0, _ = mean_loss_and_error(patches, labels, extractor, head)
    if not np.isfinite(loss0):
        raise DivergenceError("non-finite initial loss", [loss0])
    trace = [loss0]
    best_val_err = np.inf
    stall = 0

    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = [np.zeros_like(a) for a in
                     (head.weights, head.bias, extractor.kernel, extractor.bias)]
            for run in _chunks(patches, batch, extractor):
                _add_gradients(grads, patches, run, labels[run], extractor, head,
                               cfg, rng, trace)
            g_w, g_b, g_kernel, g_bias = grads
            scale = 1.0 / len(batch)
            head.weights -= lr_last * scale * g_w
            head.bias -= lr_last * scale * g_b
            extractor.kernel -= lr_lower * scale * g_kernel
            extractor.bias -= lr_lower * scale * g_bias

        epoch_loss, val_err = mean_loss_and_error(patches, labels, extractor, head)
        if not np.isfinite(epoch_loss):
            raise DivergenceError("non-finite training loss", trace)
        trace.append(epoch_loss)

        if val_patches is not None:
            _, val_err = mean_loss_and_error(val_patches, val_labels, extractor, head)
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
