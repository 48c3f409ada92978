"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately written as plain loops so they share
no code path with the library: pooling as an explicit per-location
outer-product sum, convolution as a six-deep loop, and the rank metrics
as direct counting over probe results.
"""

import numpy as np
import pytest

from bilin.extractor import ConvParams


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
