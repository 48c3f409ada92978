"""Minimal trainable feature extractor: one convolution plus rectification.

One layer is enough to exercise end-to-end backpropagation through the
bilinear pooling stage into extractor parameters; realistic deep stacks
are produced offline and ingested as ``.bfm`` feature maps instead.

Convolution here means cross-correlation (no kernel flip), the usual
CNN convention.  Patches are ``(H, W, C)`` arrays with values in
``[0, 1]`` after ingestion.

Each conv product is one matrix product per patch, with no copy of a
kernel tap's input window: the kn2row form (Vasudevan, Anderson and
Gregg, ASAP 2017).  The forward pass multiplies the padded patch's
``(Hp * Wp, c_in)`` rows by the kernel as one ``(c_in, k * k * c_out)``
matrix, then adds each tap's strided window of that product in turn.
The backward pass spreads the gated gradient over the taps once, into a
zeroed ``(Hp * Wp, k * k * c_out)`` array; the kernel gradient is the
patch rows' transpose times it, and the patch gradient is it times the
kernel matrix's transpose.  Every conv function also takes an
``(N, H, W, C)`` stack of same-shape patches and then returns one
result per patch along the leading axis, each bit-identical to the call
on that patch alone: a stack makes the same one product per patch, of
the same shape, as a single patch.

The cost is memory: the tap products and the spread each hold
``k * k * c_out`` floats per padded position, about ``k * k`` times the
feature map.  At ``c_out = 4`` that is 0.21 MB for a 27x27x512 patch;
at ``c_out = 512`` it is 27 MB each.

The backward pass has two halves over one ReLU-gated upstream gradient:
the parameter half (kernel and bias gradients) and the input half (the
patch gradient).  ``conv_param_grads`` runs the parameter half alone,
gated by a forward output the caller already holds, which is all
fine-tuning needs; ``conv_backward`` runs the forward pass, gates once
and returns both halves.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ShapeError


@dataclass
class ConvParams:
    """Learnable extractor parameters.

    kernel : (k, k, c_in, c_out) float64 array
    bias   : (c_out,) float64 array
    stride : positive int
    padding : non-negative int (zero padding on both spatial sides)
    """

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def copy(self):
        return ConvParams(
            self.kernel.copy(), self.bias.copy(), self.stride, self.padding
        )


def init_conv_params(kernel_size, c_in, c_out, stride=1, padding=0, seed=0):
    """Seeded rectifier-aware initialization.

    Kernel entries are zero-mean Gaussian with standard deviation
    ``sqrt(2 / (k * k * c_in))``; biases start at zero.
    """
    if min(kernel_size, c_in, c_out) < 1:
        raise ShapeError(f"kernel size and channel counts must be positive, got "
                         f"kernel {kernel_size}, {c_in} in, {c_out} out")
    rng = np.random.default_rng(seed)
    std = np.sqrt(2.0 / (kernel_size * kernel_size * c_in))
    kernel = rng.normal(0.0, std, size=(kernel_size, kernel_size, c_in, c_out))
    return ConvParams(kernel=kernel, bias=np.zeros(c_out), stride=stride,
                      padding=padding)


def conv_output_shape(in_h, in_w, params):
    """Output spatial size; raises ShapeError unless the stride is a
    positive int and the padding a non-negative int."""
    s, p = params.stride, params.padding
    if not (isinstance(s, Integral) and s >= 1 and isinstance(p, Integral) and p >= 0):
        raise ShapeError(f"stride must be a positive int and padding a non-negative "
                         f"int, got stride {s!r}, padding {p!r}")
    k = params.kernel.shape[0]
    out_h = (in_h + 2 * p - k) // s + 1
    out_w = (in_w + 2 * p - k) // s + 1
    return out_h, out_w


def _check_input(x, params):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeError(f"expected (H, W, C) input or an (N, H, W, C) stack, "
                         f"got shape {x.shape}")
    k, k2, c_in, _ = params.kernel.shape
    if k != k2:
        raise ShapeError(f"kernel must be square, got {params.kernel.shape[:2]}")
    if x.shape[-1] != c_in:
        raise ShapeError(
            f"input has {x.shape[-1]} channels, kernel expects {c_in}"
        )
    out_h, out_w = conv_output_shape(x.shape[-3], x.shape[-2], params)
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"output spatial dims ({out_h}, {out_w}) collapse below 1"
        )
    return x, out_h, out_w


def _pad(x, padding):
    if padding == 0:
        return x
    spatial = ((padding, padding), (padding, padding), (0, 0))
    return np.pad(x, ((0, 0),) * (x.ndim - 3) + spatial)


def _taps(params, out_h, out_w):
    """The index of each kernel tap ``ki * k + kj``, over the strided
    window of output size that it meets, into a ``(..., Hp, Wp, k * k,
    c_out)`` array of one row per tap at each padded position."""
    k, s = params.kernel.shape[0], params.stride
    for ki in range(k):
        for kj in range(k):
            yield (..., slice(ki, ki + out_h * s, s), slice(kj, kj + out_w * s, s),
                   ki * k + kj, slice(None))


def _rows(a):
    """An ``(..., H, W, C)`` array as ``(..., H * W, C)`` rows."""
    return a.reshape(a.shape[:-3] + (-1, a.shape[-1]))


def _flat_kernel(params):
    """The kernel as one ``(c_in, k * k * c_out)`` matrix, tap by tap."""
    k, _, c_in, c_out = params.kernel.shape
    return params.kernel.transpose(2, 0, 1, 3).reshape(c_in, k * k * c_out)


def _preactivation(padded, params, out_h, out_w):
    """One product of the padded rows with every tap, then each tap's
    window of it added in turn."""
    c_out = params.kernel.shape[3]
    products = (_rows(padded) @ _flat_kernel(params)).reshape(padded.shape[:-1] + (-1, c_out))
    pre = np.zeros(padded.shape[:-3] + (out_h, out_w, c_out))
    for window in _taps(params, out_h, out_w):
        pre += products[window]
    return pre + params.bias


def conv_preactivation(x, params):
    """Cross-correlation plus bias, before rectification."""
    x, out_h, out_w = _check_input(x, params)
    return _preactivation(_pad(x, params.padding), params, out_h, out_w)


def conv_forward(x, params):
    """Rectified convolution output; entries are all >= 0."""
    return np.maximum(conv_preactivation(x, params), 0.0)


def _check_backward(x, params, g_out):
    x, out_h, out_w = _check_input(x, params)
    g_out = np.asarray(g_out, dtype=np.float64)
    shape = x.shape[:-3] + (out_h, out_w, params.kernel.shape[3])
    if g_out.shape != shape:
        raise ShapeError(
            f"upstream gradient shape {g_out.shape} does not match "
            f"output shape {shape}"
        )
    return x, g_out


def _spread(padded_shape, params, g_pre):
    """The gated gradient spread over the taps: ``(..., Hp * Wp, k * k *
    c_out)`` rows, zero but where tap ``t`` of a padded position meets an
    output position, which holds that position's gradient."""
    k, c_out = params.kernel.shape[0], g_pre.shape[-1]
    spread = np.zeros(padded_shape[:-1] + (k * k, c_out))
    for window in _taps(params, *g_pre.shape[-3:-1]):
        spread[window] = g_pre
    return spread.reshape(padded_shape[:-3] + (-1, k * k * c_out))


def _param_grads(padded, params, g_pre, spread):
    """Parameter half: kernel and bias gradients from the gated gradient
    and its spread, one pair per patch of a stack."""
    k, _, c_in, c_out = params.kernel.shape
    g_flat = np.matmul(_rows(padded).swapaxes(-1, -2), spread)
    g_kernel = np.moveaxis(g_flat.reshape(g_pre.shape[:-3] + (c_in, k, k, c_out)), -4, -2)
    return g_kernel, g_pre.sum(axis=(-3, -2))


def _input_grad(in_shape, padded, params, spread):
    """Input half: the patch gradient from the gated gradient's spread."""
    g_padded = (spread @ _flat_kernel(params).T).reshape(padded.shape)
    p = params.padding
    return g_padded[..., p : p + in_shape[-3], p : p + in_shape[-2], :] if p else g_padded


def conv_param_grads(x, params, fmap, g_out):
    """Gradients w.r.t. kernel and bias only, gated by a held forward output.

    ``fmap`` must be ``conv_forward(x, params)``: ``fmap > 0`` is then the
    same mask as ``pre > 0``, so the forward pass is not run again, and
    the patch gradient is not formed.  ``fmap`` and ``g_out`` must have
    the output shape.
    """
    x, g_out = _check_backward(x, params, g_out)
    fmap = np.asarray(fmap)
    if fmap.shape != g_out.shape:
        raise ShapeError(
            f"feature map shape {fmap.shape} does not match "
            f"output shape {g_out.shape}"
        )
    padded = _pad(x, params.padding)
    g_pre = g_out * (fmap > 0.0)
    return _param_grads(padded, params, g_pre, _spread(padded.shape, params, g_pre))


def conv_backward(x, params, g_out):
    """Gradients w.r.t. input, kernel and bias with the ReLU mask applied.

    ``g_out`` must have the shape of ``conv_forward(x, params)``.
    Positions where the pre-activation is <= 0 contribute nothing.
    """
    x, g_out = _check_backward(x, params, g_out)
    padded = _pad(x, params.padding)
    g_pre = g_out * (_preactivation(padded, params, *g_out.shape[-3:-1]) > 0.0)
    spread = _spread(padded.shape, params, g_pre)
    g_kernel, g_bias = _param_grads(padded, params, g_pre, spread)
    return _input_grad(x.shape, padded, params, spread), g_kernel, g_bias


def ingest_range(values):
    """``(lo, span)`` of min-max ingestion: the array's minimum, and its
    maximum less its minimum, or 1.0 for a constant array, which so maps
    to zeros."""
    lo, hi = float(np.min(values)), float(np.max(values))
    return lo, (hi - lo if hi != lo else 1.0)


def scale_patches(values, lo, span):
    """``(values - lo) / span`` in float64: a patch from its raw array and
    range, or an ``(N, H, W, C)`` stack of them from ranges shaped
    ``(N, 1, 1, 1)``.  One pass casts and subtracts, one divides in place."""
    out = np.subtract(values, lo, dtype=np.float64)
    out /= span
    return out


def ingest_patch(values):
    """Turn a raw array into a patch with entries in [0, 1].

    Values are min-max scaled into [0, 1] (see :func:`ingest_range`); a
    constant array maps to zeros.
    """
    arr = np.asarray(values)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ShapeError(f"expected 2-D or 3-D array, got shape {arr.shape}")
    return scale_patches(arr, *ingest_range(arr))
