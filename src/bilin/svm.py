"""Per-identity linear classifiers trained on the gallery.

One binary max-margin model is trained per enrolled identity, with that
identity's media as positives and everything else as negatives; every
image or video frame counts as an individual sample.  After training,
each model's scores are affinely rescaled so the median positive
training score is +1 and the median negative is -1 (two constraints,
hence scale plus shift).  Rescaling is a positive affine map, so score
orderings are preserved.  The models are the rows of one weight matrix.

The solver is plain deterministic subgradient descent on

    0.5 * ||v||^2 + C * sum_i c_i * max(0, 1 - y_i * (v . z_i))

where ``z_i = [x_i, 1]`` augments the bias into ``v`` (so the intercept
is lightly regularized too, which keeps the diminishing-step schedule
stable), and ``c_i`` are optional balance weights.  One full-batch step
per epoch with rate ``1 / (lambda * t)``, ``lambda = 1 / (C * n)``.  The
rate is the same for every identity, so one loop over a +-1 label
matrix, one column per identity, trains them all at once.

Starting from ``W = 0``, every iterate is a combination of the rows of
``X``: ``W_t = A_t X`` with ``A`` of shape (k, n) (the representer
argument of kernelised Pegasos).  So when a gallery has fewer media than
descriptor dims (``n < dim``, as always at the paper's 262144-d), the
fit runs the same recurrence on ``A`` through the (n, n) Gram matrix
``G = X X^T``: margins ``(G A^T + b) * Y``, step ``A <- (1 - 1/t) A +
coef^T / (n lambda t)``, O(n^2 k) per epoch instead of O(n dim k).
``G`` is accumulated over column blocks of ``X`` cast to float64 one at
a time, so no float64 copy of the float32 store is made, and ``W = A X``
is never formed whole: :func:`fit_ovr_svm` returns a :class:`GalleryFit`
whose weights come a column block ``A X[:, lo:hi]`` at a time, read
again from the same source, for ``bilin.io.save_gallery`` to write as
they come.  The blocks come from an array, or straight from a
descriptor store (``bilin.io.StoreReader.columns``), so training from a
store holds no copy of ``X`` at all.  :func:`train_ovr_svm` fills one
float64 ``W`` from the same blocks.  With ``n >= dim`` the primal loop
runs on ``X`` read as one block, and its ``W`` is the one block; the two
agree to float64 rounding.

No column of the primal loop reads another, so when BLAS leaves a core
free (``bilin.cores.spare_core``) and the gallery is large, the loop runs
on two contiguous parts of the identities at once: the second on a
thread of its own, the first on the calling thread.  The cut lies at a
multiple of PART_COLUMNS and each part takes POOL_THREAD_MACS or more a
product, sizes at which BLAS computes each column with the same bits
whatever the width, so the models are those of one loop.  The Gram form
always runs in turn.
"""

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .cores import POOL_THREAD_MACS, Task, spare_core
from .errors import ConfigError, DegenerateModelError, ProtocolError, ShapeError

# Columns of X read and cast to float64 at a time by the Gram form, and
# columns of W formed from each: narrow enough that both blocks stay
# small, wide enough that each block's GEMM outweighs its Python and
# read overhead.
GRAM_BLOCK = 4096

# The primal solve splits its identities in two only at a multiple of
# this many, and leaves no part narrower: with fewer columns numpy takes
# its matrix-vector path, whose last bits differ from the product's.
PART_COLUMNS = 16


@dataclass
class LinearModel:
    """Weights, bias and affine score rescale for one gallery identity.

    Reported score = rescale_a * (w . x + b) + rescale_b, rescale_a > 0.
    """

    identity_id: str
    w: np.ndarray
    b: float
    rescale_a: float = 1.0
    rescale_b: float = 0.0


@dataclass
class GalleryModelSet:
    """Row j of ``w`` and entry j of ``b``, ``rescale_a`` and ``rescale_b``
    form the model of ``identity_ids[j]``; ids ascend (the rank tie-break)."""

    identity_ids: list
    w: np.ndarray
    b: np.ndarray
    rescale_a: np.ndarray
    rescale_b: np.ndarray

    def __post_init__(self):
        ids, k = list(self.identity_ids), len(self.identity_ids)
        if ids != sorted(set(ids)):
            raise ProtocolError("gallery identity ids must be unique and ascending")
        shapes = [np.shape(v) for v in (self.w, self.b, self.rescale_a, self.rescale_b)]
        if len(shapes[0]) != 2 or shapes[0][0] != k or shapes[1:] != [(k,)] * 3:
            raise ShapeError(f"gallery of {k} identities with shapes {shapes}")

    @property
    def descriptor_dim(self):
        return self.w.shape[1]

    def score_vector(self, descriptors):
        """Rescaled scores ``rescale_a * (w . x + b) + rescale_b``.

        One descriptor of shape (dim,) gives one score per identity,
        shape (k,); a (media, dim) stack gives shape (media, k), one
        matrix-vector product per row, so each row has the bits of that
        descriptor scored alone (one matrix product would not).
        """
        x = np.asarray(descriptors)
        if x.shape[-1:] != (self.descriptor_dim,):
            raise ShapeError(f"descriptor shape {x.shape} for model dim {self.descriptor_dim}")
        dots = np.matmul(x[..., None, :], self.w.T)[..., 0, :]
        return self.rescale_a * (dots + self.b) + self.rescale_b

    def column_blocks(self):
        """``w`` as one block of columns (see :class:`GalleryFit`)."""
        return iter((self.w,))


@dataclass
class GalleryFit:
    """A trained gallery whose weights come a block of columns at a time.

    ``identity_ids``, ``b``, ``rescale_a`` and ``rescale_b`` are those of
    the :class:`GalleryModelSet` it makes.  ``column_blocks()`` yields the
    (k, descriptor_dim) float64 weights as (k, width) blocks of
    consecutive columns, in order; a fit of the Gram form forms each one
    from its descriptors as it is asked for, so a store it was trained
    from must still be open.
    """

    identity_ids: list
    b: np.ndarray
    rescale_a: np.ndarray
    rescale_b: np.ndarray
    descriptor_dim: int
    column_blocks: Callable


def _subgradient_descent(X, Y, weighted, reg_c, epochs):
    """``(W, b)`` of one binary model per column of the +-1 labels ``Y``;
    ``weighted`` is ``Y`` times the balance weights ``c``."""
    (n, dim), k = X.shape, Y.shape[1]
    lam = 1.0 / (reg_c * n)
    W, grad = np.zeros((k, dim)), np.empty((k, dim))
    b, coef = np.zeros(k), np.empty((n, k))
    for t in range(1, epochs + 1):
        np.matmul(X, W.T, out=coef)
        coef += b
        coef *= Y  # the margins
        np.multiply(weighted, coef < 1.0, out=coef)
        # subgrad = lam * [W, b] - coef.T @ [X, 1] / n, updated in place
        np.matmul(coef.T, X, out=grad)
        grad /= n
        np.subtract(lam * W, grad, out=grad)
        grad /= lam * t
        W -= grad
        b -= (lam * b - coef.sum(axis=0) / n) / (lam * t)
    return W, b


def _primal_descent(X, Y, weighted, reg_c, epochs):
    """:func:`_subgradient_descent`'s ``(W, b)``.  When a core is spare and
    each half of the identities takes POOL_THREAD_MACS or more a product,
    the second half is solved on a thread of its own.  No column of the
    recurrence reads another, and parts that large keep BLAS off the
    kernels whose last bits follow the width, so the bits are those of
    one solve."""
    (n, dim), k = X.shape, Y.shape[1]
    cut = PART_COLUMNS * ((k + PART_COLUMNS) // (2 * PART_COLUMNS))  # nearest k / 2
    part = min(cut, k - cut)
    if part < PART_COLUMNS or n * dim * part < POOL_THREAD_MACS or not spare_core():
        return _subgradient_descent(X, Y, weighted, reg_c, epochs)
    second = Task("bilin-svm-part", _subgradient_descent,
                  X, Y[:, cut:], weighted[:, cut:], reg_c, epochs)
    second.start()
    try:
        W, b = _subgradient_descent(X, Y[:, :cut], weighted[:, :cut], reg_c, epochs)
        W2, b2 = second.result()
    finally:
        second.join()  # the second part ends before any exit
    return np.concatenate((W, W2)), np.concatenate((b, b2))


def _gram_descent(columns, dim, Y, weighted, reg_c, epochs):
    """``(A, b, scores)`` of the same iterates as :func:`_subgradient_descent`,
    run on the coefficients ``A`` of ``W = A X`` through ``G = X X^T``;
    ``scores`` are the final ``X W^T + b``.  ``columns(lo, hi)`` gives the
    (n, hi - lo) block ``X[:, lo:hi]``, ``hi`` clipped at ``dim``, which may
    be float32: only one block of GRAM_BLOCK columns is cast to float64 at
    a time.  ``W = A X`` itself is left to the caller."""
    n, k = Y.shape
    lam = 1.0 / (reg_c * n)
    G = np.zeros((n, n))
    for start in range(0, dim, GRAM_BLOCK):
        block = columns(start, start + GRAM_BLOCK).astype(np.float64)
        G += block @ block.T
    A, b, coef = np.zeros((k, n)), np.zeros(k), np.empty((n, k))
    for t in range(1, epochs + 1):
        np.matmul(G, A.T, out=coef)
        coef += b
        coef *= Y  # the margins
        np.multiply(weighted, coef < 1.0, out=coef)
        A *= 1.0 - 1.0 / t
        A += coef.T / (n * lam * t)
        b -= (lam * b - coef.sum(axis=0) / n) / (lam * t)
    scores = G @ A.T
    scores += b
    return A, b, scores


def _rescale(pos_scores, neg_scores, identity_id):
    """``(rescale_a, rescale_b)`` of one model from its training scores on
    its positives and its negatives (see :func:`rescale_model`); a median
    positive that does not exceed the median negative is a
    DegenerateModelError naming ``identity_id``."""
    med_pos, med_neg = np.median(pos_scores), np.median(neg_scores)
    if med_pos <= med_neg:
        raise DegenerateModelError(
            f"median positive score {float(med_pos):g} does not exceed "
            f"median negative {float(med_neg):g} for {identity_id!r}"
        )
    a = 2.0 / (med_pos - med_neg)
    return a, 1.0 - a * med_pos


def _rescales(scores, positive, identity_ids):
    """The ``(rescale_a, rescale_b)`` arrays of :func:`_rescale` of each
    column of the (n, k) training ``scores``, whose positives ``positive``
    marks, in order: the first degenerate identity is the one named."""
    a, b = np.empty(len(identity_ids)), np.empty(len(identity_ids))
    for j, identity_id in enumerate(identity_ids):
        column, mask = scores[:, j], positive[:, j]
        a[j], b[j] = _rescale(column[mask], column[~mask], identity_id)
    return a, b


def rescale_model(model, pos_scores, neg_scores):
    """Affine rescale so median positive maps to +1 and median negative to -1.

    Solves ``a * median(pos) + b = 1`` and ``a * median(neg) + b = -1``:
    ``a = 2 / (median(pos) - median(neg))``, ``b = 1 - a * median(pos)``.
    Requires ``median(pos) > median(neg)`` so that ``a > 0`` and score
    order is preserved.  The returned model shares ``model.w``.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg_scores = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise ValueError("both score lists must be non-empty")
    a, b = _rescale(pos_scores, neg_scores, model.identity_id)
    return replace(model, rescale_a=float(a), rescale_b=float(b))


def fit_ovr_svm(descriptors, labels, reg_c=1.0, epochs=100, balanced=False):
    """The :class:`GalleryFit` of :func:`train_ovr_svm`'s models, whose
    weights are formed a column block at a time when asked for; the
    parameters are :func:`train_ovr_svm`'s."""
    if not (np.isfinite(reg_c) and reg_c > 0) or epochs < 1:
        raise ConfigError(f"reg_c must be finite and > 0 and epochs >= 1, "
                          f"got reg_c={reg_c}, epochs={epochs}")
    if callable(getattr(descriptors, "columns", None)):  # a reader
        shape, columns = descriptors.shape, descriptors.columns
    else:
        X = np.asarray(descriptors)
        shape, columns = X.shape, lambda lo, hi: X[:, lo:hi]
    if len(shape) != 2:
        raise ShapeError(f"descriptors must be (n, dim), got shape {shape}")
    (n, dim), labels = shape, [str(l) for l in labels]
    if len(labels) != n:
        raise ShapeError(f"{n} descriptors but {len(labels)} labels")
    identities = sorted(set(labels))
    if len(identities) < 2:
        raise ProtocolError("one-vs-rest training needs at least 2 identities")

    positive = np.asarray(labels)[:, None] == np.asarray(identities)[None, :]
    Y = np.where(positive, 1.0, -1.0)
    weighted = Y
    if balanced:
        # each positive weighs n_neg / n_pos, each negative 1
        n_pos = positive.sum(axis=0)
        weighted = np.where(positive, (len(labels) - n_pos) / n_pos, -1.0)
    if n < dim:
        A, b, scores = _gram_descent(columns, dim, Y, weighted, reg_c, epochs)
        # W = A X, each block A @ X[:, lo:hi] formed as it is asked for
        column_blocks = lambda: (A @ columns(lo, lo + GRAM_BLOCK).astype(np.float64)
                                 for lo in range(0, dim, GRAM_BLOCK))
    else:
        X = columns(0, dim).astype(np.float64, copy=False)
        W, b = _primal_descent(X, Y, weighted, reg_c, epochs)
        scores = X @ W.T
        scores += b
        column_blocks = lambda: iter((W,))
    rescale_a, rescale_b = _rescales(scores, positive, identities)
    return GalleryFit(identities, b, rescale_a, rescale_b, dim, column_blocks)


def train_ovr_svm(descriptors, labels, reg_c=1.0, epochs=100, balanced=False):
    """Train one-vs-rest linear models on a labeled descriptor set.

    Parameters
    ----------
    descriptors : (n, dim) array, or a reader of one with ``shape`` and
        ``columns(lo, hi)`` (such as :class:`bilin.io.StoreReader`); the
        Gram form reads a reader's columns a block at a time and never
        holds them whole
    labels : sequence of n identity-id strings (>= 2 distinct)
    reg_c : hinge penalty C, finite and > 0
    epochs : full-batch subgradient steps (>= 1), shared by all identities
    balanced : weight each positive by n_neg / n_pos to counter the
        one-vs-rest imbalance (off by default)

    Returns
    -------
    GalleryModelSet with one rescaled model per identity, ordered by
    ascending identity id.
    """
    fit = fit_ovr_svm(descriptors, labels, reg_c, epochs, balanced)
    w, lo = np.empty((len(fit.identity_ids), fit.descriptor_dim)), 0
    for block in fit.column_blocks():
        w[:, lo:lo + block.shape[1]] = block
        lo += block.shape[1]
    return GalleryModelSet(fit.identity_ids, w, fit.b, fit.rescale_a, fit.rescale_b)
