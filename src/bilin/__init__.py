"""Bilinear (second-order) feature encoding and open-set identification.

The pieces, bottom up:

* :mod:`bilin.encoder` - outer-product pooling of feature maps, signed
  square-root and L2 normalization, the exact backward pass of the
  symmetric case, and a finite-difference gradient checker.
* :mod:`bilin.extractor` - a minimal trainable convolution + ReLU
  extractor, plus patch ingestion.
* :mod:`bilin.io` - bit-exact binary formats for feature maps (.bfm)
  and gallery model sets (.bgm), and the descriptor store: one float32
  matrix per encode run plus a manifest naming its rows.
* :mod:`bilin.svm` - one-vs-rest linear max-margin models with median
  score rescaling, trained on the gallery.
* :mod:`bilin.finetune` - softmax-head fine-tuning of the whole stack
  with staged learning rates and dropout.
* :mod:`bilin.protocol` - templates, splits, metadata CSV, and a
  synthetic generator whose classes differ only in second-order
  statistics.
* :mod:`bilin.evaluate` - template pooling, 1:N identification, CMC
  and DET curves, FNIR at fixed FPIR operating points.
* :mod:`bilin.cli` - the ``bilin`` command wiring it all together.
"""

# The names the demos import; everything else lives in its module.
from .encoder import (
    bilinear_pool,
    encode,
    encode_backward_shared,
    finite_diff_check,
    first_order_descriptor,
    l2_normalize,
    signed_sqrt,
)

__version__ = "0.1.0"
