"""Bilinear (second-order) feature encoding and open-set identification.

The pieces, bottom up:

* :mod:`bilin.encoder` - outer-product pooling of feature maps, signed
  square-root and L2 normalization, exact backward passes, and a
  finite-difference gradient checker.
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

from .encoder import (
    GradCheckReport,
    bilinear_pool,
    bilinear_pool_backward,
    encode,
    encode_backward,
    encode_backward_shared,
    finite_diff_check,
    first_order_descriptor,
    l2_normalize,
    l2_normalize_backward,
    signed_sqrt,
    signed_sqrt_backward,
)
from .extractor import ConvParams, conv_backward, conv_forward, init_conv_params
from .finetune import SoftmaxHead, TrainConfig, finetune_softmax, init_softmax_head
from .io import (
    FeatureMap,
    load_feature_map,
    load_gallery,
    save_feature_map,
    save_gallery,
)
from .svm import GalleryModelSet, LinearModel, rescale_model, train_ovr_svm
from .protocol import Split, SynthConfig, read_metadata, synth_generate, validate_split
from .evaluate import (
    CmcCurve,
    DetCurve,
    ProbeResult,
    compute_cmc,
    compute_det,
    fnir_at_fpir,
    identify,
    pool_features,
    pool_scores,
)

__version__ = "0.1.0"
