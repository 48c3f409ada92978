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
at storage time (see :mod:`bilin.io`).  All public functions are pure:
:func:`encode` runs the signed square root and the normalisation in
place, but only on the pooled matrix it allocates itself, and it checks
finiteness once, on its input maps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

# Subgradient smoothing for the signed square root at 0: the backward
# pass uses 1 / (2 * sqrt(|x| + SQRT_EPS)); the forward pass is exact.
SQRT_EPS = 1e-8


def _as_map(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"{name}: expected (H, W, C) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name}: feature map contains non-finite values")
    return arr


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
        flat = a.reshape(-1, a.shape[2])
        return flat.T @ flat
    b = _as_map(b, "b")
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(
            f"spatial dimensions differ: {a.shape[:2]} vs {b.shape[:2]}"
        )
    return a.reshape(-1, a.shape[2]).T @ b.reshape(-1, b.shape[2])


def bilinear_pool_backward(a, b, g_out):
    """Gradients of ``bilinear_pool(a, b)`` w.r.t. both maps.

    Per location ``l``: ``g_a[l] = g_out @ b[l]`` and
    ``g_b[l] = g_out.T @ a[l]``.  When the two maps come from a shared
    extractor the caller sums the two gradients, which equals applying
    ``(g_out + g_out.T)`` to the shared map.
    """
    a = _as_map(a, "a")
    b = _as_map(b, "b")
    if a.shape[:2] != b.shape[:2]:
        raise ShapeError(
            f"spatial dimensions differ: {a.shape[:2]} vs {b.shape[:2]}"
        )
    g = np.asarray(g_out, dtype=np.float64)
    if g.shape != (a.shape[2], b.shape[2]):
        raise ShapeError(
            f"upstream gradient shape {g.shape} does not match "
            f"({a.shape[2]}, {b.shape[2]})"
        )
    g_a = (b.reshape(-1, b.shape[2]) @ g.T).reshape(a.shape)
    g_b = (a.reshape(-1, a.shape[2]) @ g).reshape(b.shape)
    return g_a, g_b


def _signed_sqrt_inplace(x):
    # Same bits as sign(x) * sqrt(|x|): -0.0 is not < 0, so it maps to +0.0.
    neg = x < 0
    np.abs(x, out=x)
    np.sqrt(x, out=x)
    np.negative(x, out=x, where=neg)
    return x


def _l2_normalize_inplace(x):
    norm = float(np.linalg.norm(x))
    if not math.isfinite(norm):
        raise NumericError("l2_normalize: non-finite norm")
    if norm != 0.0:
        x /= norm
    return x


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

    The zero vector is returned unchanged (rectified inputs can pool
    to all zeros on degenerate crops and must not abort a pipeline).
    """
    v = np.array(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericError("l2_normalize: non-finite input")
    return _l2_normalize_inplace(v)


def l2_normalize_backward(v, g):
    """Backward pass of :func:`l2_normalize`.

    ``g' = (g - z * (z . g)) / |v|`` with ``z = v / |v|``; the radial
    component of the upstream gradient is projected out, so ``g``
    parallel to ``v`` maps to 0.  Zero input propagates zero gradient.
    """
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if v.shape != g.shape:
        raise ShapeError(f"value/gradient shapes differ: {v.shape} vs {g.shape}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros_like(v)
    z = v / norm
    return (g - z * float(z @ g)) / norm


def encode(a, b=None):
    """Full descriptor: pool, vectorize, signed sqrt, L2 normalize.

    Returns a 1-D float64 vector of length ``Ca * Cb`` at unit norm
    (or all zeros for an all-zero pooled matrix).  Vectorization is
    row-major, so e.g. two 27x27x512 maps give a 262144-d descriptor.
    """
    x = bilinear_pool(a, b).reshape(-1)
    return _l2_normalize_inplace(_signed_sqrt_inplace(x))


def encode_backward(a, b, g_desc):
    """Gradients of :func:`encode` w.r.t. both input maps.

    Recomputes the forward intermediates (cheap at the map sizes this
    library targets) and chains the three backward passes.
    """
    a = _as_map(a, "a")
    b = a if b is None else _as_map(b, "b")
    pooled = bilinear_pool(a, b)
    x = pooled.reshape(-1)
    y = signed_sqrt(x)
    g_y = l2_normalize_backward(y, np.asarray(g_desc, dtype=np.float64))
    g_x = signed_sqrt_backward(x, g_y)
    return bilinear_pool_backward(a, b, g_x.reshape(pooled.shape))


def encode_backward_shared(a, g_desc):
    """Gradient of the symmetric case ``encode(a, a)`` w.r.t. ``a``."""
    g_a, g_b = encode_backward(a, a, g_desc)
    return g_a + g_b


def first_order_descriptor(values):
    """Location-averaged (first-order) baseline descriptor.

    Averages the per-location channel vectors and applies the same
    signed-sqrt + L2 chain, producing a C-dimensional vector.  Useful
    as the first-order point of comparison for the bilinear encoding.
    """
    arr = _as_map(values, "values")
    mean = arr.reshape(-1, arr.shape[2]).mean(axis=0)
    return _l2_normalize_inplace(_signed_sqrt_inplace(mean))


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
