"""Second-order (bilinear) descriptor encoding.

A feature map is an ``(H, W, C)`` float array: location-major with the
channel index fastest, the same layout the ``.bfm`` file format uses.
Two maps with matching spatial dimensions are combined by taking the
outer product of their per-location channel vectors and summing over
all locations, which discards spatial layout and keeps channel
co-occurrence statistics.  The pooled matrix is vectorized row-major
(row index = channel of the first map), passed through a signed square
root and then scaled to unit Euclidean norm.

Accumulation is done in float64; descriptors are cast to float32 only
at storage time (see :mod:`bilin.io`).  All public functions but
:func:`normalize_rows` are pure: :func:`encode` runs the signed square
root and the normalisation in place, but only on the pooled matrix it
allocates itself, and it checks finiteness once, on its input maps.
:func:`pool_rows` and :func:`normalize_rows` are its two halves, for a
caller that has checked its maps already and runs the halves apart.

In the symmetric case (``b=None``) :func:`encode` also takes an
``(N, H, W, C)`` stack of maps, and :func:`encode_shared` runs that case
on one map or a stack and keeps the pooled vectors and norms for its
backward pass, the one backward pass of the chain: the paper fine-tunes
a symmetric B-CNN, where one network feeds both streams.  Each map's
descriptor has the bits of :func:`encode` on that map.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

# Subgradient smoothing for the signed square root at 0: the backward
# pass uses 1 / (2 * sqrt(|x| + SQRT_EPS)); the forward pass is exact.
SQRT_EPS = 1e-8


def _as_map(values, name, stack=False):
    """``values`` as a finite float64 ``(H, W, C)`` map, or with ``stack``
    also an ``(N, H, W, C)`` stack of maps."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3 and not (stack and arr.ndim == 4):
        expected = "(H, W, C) array or (N, H, W, C) stack" if stack else "(H, W, C) array"
        raise ShapeError(f"{name}: expected {expected}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name}: feature map contains non-finite values")
    return arr


def _flat(maps):
    """(..., H, W, C) maps as (..., H*W, C) location rows."""
    return maps.reshape(maps.shape[:-3] + (-1, maps.shape[-1]))


def _pool_shared(maps):
    """Symmetric pooling of checked ``(..., H, W, C)`` maps: one syrk per
    map, so a map pools to the same bits alone or in a stack."""
    flat = _flat(maps)
    return np.matmul(flat.swapaxes(-1, -2), flat)


def pool_rows(maps):
    """The first step of ``encode(maps)``, without its check: the pooled
    matrices of a finite float64 ``(H, W, C)`` map or ``(N, H, W, C)``
    stack, each vectorized to one ``C*C`` row."""
    return _pool_shared(maps).reshape(maps.shape[:-3] + (-1,))


def normalize_rows(x):
    """The last steps of :func:`encode`, in place on pooled rows ``x``:
    the signed square root, then each row (last axis) scaled to unit
    norm.  Returns ``x``."""
    _l2_normalize_inplace(_signed_sqrt_inplace(x))
    return x


def bilinear_pool(a, b=None):
    """Sum of per-location outer products of two feature maps.

    Parameters
    ----------
    a, b : (H, W, Ca) and (H, W, Cb) arrays
        Spatial dimensions must match; channel counts may differ.
        ``b=None`` selects the symmetric case ``b = a``.

    Returns
    -------
    (Ca, Cb) float64 array
        ``out[i, j] = sum over locations l of a[l, i] * b[l, j]``.
        Invariant to any permutation of the locations.  In the
        symmetric case the result is symmetric positive semidefinite.
    """
    a = _as_map(a, "a")
    if b is None:
        return _pool_shared(a)
    b = _as_map(b, "b")
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(
            f"spatial dimensions differ: {a.shape[:2]} vs {b.shape[:2]}"
        )
    return a.reshape(-1, a.shape[2]).T @ b.reshape(-1, b.shape[2])


def _signed_sqrt_inplace(x):
    # Same bits as sign(x) * sqrt(|x|): -0.0 is not < 0, so it maps to +0.0.
    neg = x < 0
    np.abs(x, out=x)
    np.sqrt(x, out=x)
    np.negative(x, out=x, where=neg)
    return x


def _nonzero(norm):
    """The norms as divisors: a zero norm divides its (zero) row by 1."""
    return np.where(norm == 0.0, 1.0, norm)[..., None]


def _dots(x, y):
    """Dot product of each row (last axis) of ``x`` with the same row of
    ``y``: one BLAS ddot per row, the call ``np.linalg.norm`` makes for a
    vector, so no row's result depends on the rows stacked beside it."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _l2_normalize_inplace(x):
    """Scale each row (last axis) of ``x`` to unit norm in place, leaving
    zero rows as they are, and return the norms: a 1-D ``x`` is one row,
    with a scalar norm."""
    norm = np.sqrt(_dots(x, x))
    if not np.isfinite(norm).all():
        raise NumericError("l2_normalize: non-finite norm")
    x /= _nonzero(norm)
    return norm


def signed_sqrt(v):
    """Elementwise ``sign(x) * sqrt(|x|)``.

    Preserves the sign pattern.  Not idempotent: applying it twice
    yields a signed fourth root.
    """
    v = np.array(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericError("signed_sqrt: non-finite input")
    return _signed_sqrt_inplace(v)


def signed_sqrt_backward(v, g):
    """Backward pass of :func:`signed_sqrt`.

    The derivative ``1 / (2 * sqrt(|x|))`` is undefined at 0, so the
    denominator is smoothed with ``SQRT_EPS``; at ``x = 0`` with a unit
    upstream gradient this yields ``1 / (2 * sqrt(SQRT_EPS)) = 5000``.
    Away from 0 the result matches central finite differences.
    """
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if v.shape != g.shape:
        raise ShapeError(f"value/gradient shapes differ: {v.shape} vs {g.shape}")
    return g / (2.0 * np.sqrt(np.abs(v) + SQRT_EPS))


def l2_normalize(v):
    """Scale a vector to unit Euclidean norm.

    An array of any other shape is scaled as one vector, by its
    Frobenius norm.  The zero vector is returned unchanged (rectified
    inputs can pool to all zeros on degenerate crops and must not abort
    a pipeline).
    """
    v = np.array(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericError("l2_normalize: non-finite input")
    _l2_normalize_inplace(v.reshape(-1))
    return v


def _l2_backward(z, norm, g):
    """L2 backward per row from the normalised rows ``z`` and their norms."""
    g_v = (g - z * _dots(z, g)[..., None]) / _nonzero(norm)
    g_v[norm == 0.0] = 0.0
    return g_v


def encode(a, b=None):
    """Full descriptor: pool, vectorize, signed sqrt, L2 normalize.

    Returns a 1-D float64 vector of length ``Ca * Cb`` at unit norm
    (or all zeros for an all-zero pooled matrix).  Vectorization is
    row-major, so e.g. two 27x27x512 maps give a 262144-d descriptor.

    With ``b=None``, ``a`` may also be an ``(N, H, W, C)`` stack of maps,
    checked once as a whole; the result is then ``(N, C*C)``, each row
    bit-identical to ``encode`` of its map alone.
    """
    if b is None:
        x = pool_rows(_as_map(a, "a", stack=True))
    else:
        x = bilinear_pool(a, b).reshape(-1)
    return normalize_rows(x)


def encode_backward_shared(a, g_desc):
    """Gradient of the symmetric case ``encode(a, a)`` w.r.t. ``a``."""
    return encode_shared(a).backward(g_desc)


@dataclass
class SharedEncoding:
    """The forward pass of ``encode(a)`` over one ``(H, W, C)`` map or
    each map of an ``(N, H, W, C)`` stack, kept for its backward pass.

    maps   : the input map or stack
    pooled : (..., C*C) pooled matrices, vectorized
    norm   : (...,) norms of their signed square roots
    desc   : (..., C*C) descriptors, each bit-identical to ``encode`` of
             its map alone
    """

    maps: np.ndarray
    pooled: np.ndarray
    norm: np.ndarray
    desc: np.ndarray

    def backward(self, g_desc):
        """Gradient w.r.t. the maps, reusing the forward intermediates:
        the L2, signed-sqrt and pooling backward passes, the last with the
        two streams' gradients summed on the shared map."""
        g = np.asarray(g_desc, dtype=np.float64)
        if g.shape != self.desc.shape:
            raise ShapeError(f"upstream gradient shape {g.shape} does not match "
                             f"descriptor shape {self.desc.shape}")
        g_pooled = signed_sqrt_backward(self.pooled, _l2_backward(self.desc, self.norm, g))
        c = self.maps.shape[-1]
        g_pooled = g_pooled.reshape(g_pooled.shape[:-1] + (c, c))
        flat = _flat(self.maps)
        g_maps = np.matmul(flat, g_pooled.swapaxes(-1, -2)) + np.matmul(flat, g_pooled)
        return g_maps.reshape(self.maps.shape)


def encode_shared(maps):
    """:func:`encode` of one ``(H, W, C)`` map or of each map of an
    ``(N, H, W, C)`` stack, as a :class:`SharedEncoding`.

    It pools and normalizes as ``encode`` does, map by map, so each
    descriptor has the bits of ``encode`` on its map.  The pooled vectors
    are kept, so the descriptors are a copy.
    """
    maps = _as_map(maps, "maps", stack=True)
    pooled = pool_rows(maps)
    desc = _signed_sqrt_inplace(pooled.copy())
    norm = _l2_normalize_inplace(desc)
    return SharedEncoding(maps, pooled, norm, desc)


def first_order_descriptor(values):
    """Location-averaged (first-order) baseline descriptor.

    Averages the per-location channel vectors and applies the same
    signed-sqrt + L2 chain, producing a C-dimensional vector.  Useful
    as the first-order point of comparison for the bilinear encoding.
    """
    arr = _as_map(values, "values")
    return normalize_rows(arr.reshape(-1, arr.shape[2]).mean(axis=0))


@dataclass
class GradCheckReport:
    """Outcome of comparing an analytic gradient to central differences."""

    max_abs_error: float
    max_rel_error: float
    probe_count: int
    step: float

    def ok(self, rel_tol=1e-4):
        return self.max_rel_error < rel_tol


def finite_diff_check(fn, x, step=1e-4, max_probes=None, seed=0):
    """Check an analytic gradient against central finite differences.

    Parameters
    ----------
    fn : callable
        ``fn(x) -> (value, grad)`` where ``value`` is a finite scalar
        and ``grad`` has the shape of ``x``.
    x : array
        Point at which to check.
    step : float
        Central difference step ``h``; must be positive.
    max_probes : int, optional
        Check at most this many coordinates, sampled without
        replacement with the given seed.  Default checks every one.

    Returns
    -------
    GradCheckReport
        Maximum absolute and relative disagreement over the probed
        coordinates.  Relative error uses ``|a - n| / max(|a| + |n|,
        1e-8)`` so a pair of exact zeros counts as zero error.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    _, grad = fn(x)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match input {x.shape}")

    n_coords = x.size
    if max_probes is not None and max_probes < n_coords:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n_coords, size=max_probes, replace=False))
    else:
        idx = np.arange(n_coords)

    max_abs = 0.0
    max_rel = 0.0
    flat = x.reshape(-1)
    for i in idx:
        probe = flat.copy()
        probe[i] += step
        f_plus, _ = fn(probe.reshape(x.shape))
        probe[i] -= 2.0 * step
        f_minus, _ = fn(probe.reshape(x.shape))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("finite_diff_check: function value is non-finite")
        numeric = (float(f_plus) - float(f_minus)) / (2.0 * step)
        analytic = float(grad.reshape(-1)[i])
        abs_err = abs(analytic - numeric)
        rel_err = abs_err / max(abs(analytic) + abs(numeric), 1e-8)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)

    return GradCheckReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        probe_count=int(len(idx)),
        step=float(step),
    )
