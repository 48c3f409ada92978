"""Desk-scale fine-tuning of the extractor + descriptor + softmax stack.

Each labeled sample is a patch in [0, 1].  The forward pass is:
conv_forward -> symmetric bilinear encoding -> (dropout, training only)
-> affine softmax head -> cross-entropy.  Two learning-rate groups are
maintained: ``lr_lower`` for the extractor and ``lr_last`` for the
head; both are divided by ``lr_decay_factor`` whenever the validation
error rate fails to improve by more than MIN_IMPROVEMENT for
``patience`` consecutive epochs.

Dropout is inverted (activations scaled by 1/(1-rate) while training),
so evaluation applies the learned weights unchanged and is fully
deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import encode, encode_backward_shared
from .errors import DataError, DivergenceError
from .extractor import conv_forward, conv_param_grads

# Absolute validation-error improvement below this counts as "no change"
# for the learning-rate schedule.
MIN_IMPROVEMENT = 1e-4


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


def init_softmax_head(n_classes, dim, seed=0, std=0.01):
    if n_classes < 2:
        raise DataError("softmax head needs at least 2 classes")
    rng = np.random.default_rng(seed)
    return SoftmaxHead(
        weights=rng.normal(0.0, std, size=(n_classes, dim)),
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
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def sample_descriptor(patch, extractor):
    """Feature map and symmetric bilinear descriptor for one patch."""
    fmap = conv_forward(patch, extractor)
    return fmap, encode(fmap)


def predict_logits(patch, extractor, head):
    _, desc = sample_descriptor(patch, extractor)
    return head.weights @ desc + head.bias


def mean_loss_and_error(patches, labels, extractor, head):
    """Clean (dropout-free) mean cross-entropy and error rate."""
    total = 0.0
    wrong = 0
    for patch, label in zip(patches, labels):
        logp = _log_softmax(predict_logits(patch, extractor, head))
        total += -float(logp[label])
        if int(np.argmax(logp)) != label:
            wrong += 1
    n = len(labels)
    return total / n, wrong / n


def finetune_softmax(extractor, head, patches, labels, cfg,
                     val_patches=None, val_labels=None):
    """Mini-batch gradient descent on the full stack.

    Parameters
    ----------
    extractor : ConvParams (updated with lr_lower)
    head : SoftmaxHead (updated with lr_last)
    patches : sequence of (H, W, C) arrays in [0, 1]
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
    DataError : bad labels or an empty class.
    DivergenceError : the loss became non-finite (trace attached).
    """
    cfg.validate()
    labels = [int(l) for l in labels]
    if len(patches) != len(labels) or not labels:
        raise DataError("patches and labels must be non-empty and aligned")
    n_classes = head.n_classes
    if min(labels) < 0 or max(labels) >= n_classes:
        raise DataError(f"labels must lie in [0, {n_classes})")
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        raise DataError(f"classes without samples: {np.where(counts == 0)[0].tolist()}")

    extractor = extractor.copy()
    head = head.copy()
    rng = np.random.default_rng(cfg.seed)
    lr_lower, lr_last = cfg.lr_lower, cfg.lr_last
    keep = 1.0 - cfg.dropout_rate

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
            g_w = np.zeros_like(head.weights)
            g_b = np.zeros_like(head.bias)
            g_kernel = np.zeros_like(extractor.kernel)
            g_bias = np.zeros_like(extractor.bias)
            for i in batch:
                fmap, desc = sample_descriptor(patches[i], extractor)
                if cfg.dropout_rate > 0.0:
                    mask = (rng.random(desc.shape) >= cfg.dropout_rate) / keep
                    dropped = desc * mask
                else:
                    mask = None
                    dropped = desc
                logp = _log_softmax(head.weights @ dropped + head.bias)
                if not np.all(np.isfinite(logp)):
                    raise DivergenceError("non-finite training loss", trace)
                g_logits = np.exp(logp)
                g_logits[labels[i]] -= 1.0
                g_w += np.outer(g_logits, dropped)
                g_b += g_logits
                g_desc = head.weights.T @ g_logits
                if mask is not None:
                    g_desc = g_desc * mask
                g_fmap = encode_backward_shared(fmap, g_desc)
                g_k, g_cb = conv_param_grads(patches[i], extractor, fmap, g_fmap)
                g_kernel += g_k
                g_bias += g_cb
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
