import math

import numpy as np
import pytest
from conftest import finetune_oracle

from bilin import extractor as extractor_module
from bilin import finetune
from bilin.encoder import encode
from bilin.errors import DataError, DivergenceError, NumericError, ShapeError
from bilin.extractor import (ConvParams, conv_backward, conv_forward, ingest_patch,
                             ingest_range, init_conv_params)
from bilin.finetune import (
    MapPatches,
    TrainConfig,
    finetune_softmax,
    init_softmax_head,
    mean_loss_and_error,
)
from bilin.io import MapFile, MapReader, save_feature_map


def correlation_task(n_per_class, hw=6, seed=0, gap=0.2):
    """Two classes separable only by channel coupling.

    Channel 0 is a binary mask; channel 1 mixes the mask with its
    complement by a per-sample amount m.  Class 0 keeps m below 0.5,
    class 1 above, with a margin of ``gap`` around the midpoint, so
    sample difficulty is graded.
    """
    rng = np.random.default_rng(seed)
    patches, labels = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            base = np.round(rng.random((hw, hw)))
            lo, hi = (0.0, 0.5 - gap / 2) if label == 0 else (0.5 + gap / 2, 1.0)
            m = rng.uniform(lo, hi)
            mixed = (1.0 - m) * base + m * (1.0 - base)
            patches.append(np.stack([base, mixed], axis=2))
            labels.append(label)
    return patches, labels


@pytest.fixture(scope="module")
def toy():
    return correlation_task(16)


def fresh_stack(seed=1, n_classes=2):
    extractor = init_conv_params(2, 2, 4, seed=seed)
    head = init_softmax_head(n_classes, 16, seed=seed)
    return extractor, head


class TestConfig:
    def test_defaults_match_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.lr_lower == 0.001
        assert cfg.lr_last == 0.01
        assert cfg.lr_decay_factor == 10.0
        assert cfg.dropout_rate == 0.5
        assert cfg.patience == 3

    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            TrainConfig(lr_lower=-1.0).validate()
        with pytest.raises(DataError):
            TrainConfig(lr_decay_factor=1.0).validate()
        with pytest.raises(DataError):
            TrainConfig(dropout_rate=1.0).validate()
        with pytest.raises(DataError):
            TrainConfig(epochs=0).validate()


class TestZeroRates:
    def test_parameters_bit_identical_and_trace_flat(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        cfg = TrainConfig(lr_lower=0.0, lr_last=0.0, epochs=4, batch_size=4,
                          seed=9)
        out_ext, out_head, trace = finetune_softmax(
            extractor, head, patches, labels, cfg
        )
        assert np.array_equal(out_ext.kernel, extractor.kernel)
        assert np.array_equal(out_ext.bias, extractor.bias)
        assert np.array_equal(out_head.weights, head.weights)
        assert np.array_equal(out_head.bias, head.bias)
        assert len(set(trace)) == 1


class TestLearning:
    def test_loss_decreases_on_toy_task(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        cfg = TrainConfig(epochs=8, batch_size=2, seed=3)
        out_ext, out_head, trace = finetune_softmax(
            extractor, head, patches, labels, cfg
        )
        assert trace[-1] < trace[0]
        assert len(trace) == cfg.epochs + 1
        _, err = mean_loss_and_error(patches, labels, out_ext, out_head)
        assert err <= 0.25

    def test_inputs_not_mutated(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        kernel_before = extractor.kernel.copy()
        weights_before = head.weights.copy()
        finetune_softmax(extractor, head, patches, labels,
                         TrainConfig(epochs=2, batch_size=4, seed=0))
        assert np.array_equal(extractor.kernel, kernel_before)
        assert np.array_equal(head.weights, weights_before)

    def test_deterministic_given_seed(self, toy):
        patches, labels = toy
        cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
        runs = []
        for _ in range(2):
            extractor, head = fresh_stack()
            runs.append(finetune_softmax(extractor, head, patches, labels, cfg))
        (e1, h1, t1), (e2, h2, t2) = runs
        assert np.array_equal(e1.kernel, e2.kernel)
        assert np.array_equal(h1.weights, h2.weights)
        assert t1 == t2

    def test_evaluation_is_dropout_free_and_repeatable(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=2)
        out_ext, out_head, _ = finetune_softmax(
            extractor, head, patches, labels, cfg
        )
        logits = [out_head.weights @ encode(conv_forward(patches[0], out_ext)) + out_head.bias
                  for _ in range(2)]
        assert np.array_equal(logits[0], logits[1])


class TestSchedule:
    def test_plateau_decay_freezes_progress(self, toy):
        patches, labels = toy
        # validation set the model can never get right: a mislabeled copy
        val_patches = patches[:4]
        val_labels = [1 - l for l in labels[:4]]
        kwargs = dict(val_patches=val_patches, val_labels=val_labels)

        extractor, head = fresh_stack()
        decayed = finetune_softmax(
            extractor, head, patches, labels,
            TrainConfig(epochs=14, batch_size=1, seed=3, patience=2,
                        dropout_rate=0.0), **kwargs,
        )[2]
        extractor, head = fresh_stack()
        free = finetune_softmax(
            extractor, head, patches, labels,
            TrainConfig(epochs=14, batch_size=1, seed=3, patience=100,
                        dropout_rate=0.0), **kwargs,
        )[2]
        # identical until the first decay can fire, then the decayed run
        # stalls while the free run keeps descending
        assert decayed[:3] == free[:3]
        assert free[-1] < decayed[-1]
        assert abs(decayed[-1] - decayed[8]) < abs(free[-1] - free[8])

    def test_one_loss_pass_per_epoch_without_validation_set(self, toy, monkeypatch):
        patches, labels = toy
        passes = []

        def counted(*args):
            passes.append(1)
            return mean_loss_and_error(*args)

        monkeypatch.setattr(finetune, "mean_loss_and_error", counted)
        cfg = TrainConfig(epochs=6, batch_size=4, seed=3, patience=1)

        def run(**kwargs):
            passes.clear()
            extractor, head = fresh_stack()
            out = finetune_softmax(extractor, head, patches, labels, cfg, **kwargs)
            return out, len(passes)

        (_, head, trace), n_passes = run()
        (_, val_head, val_trace), n_val_passes = run(val_patches=patches,
                                                     val_labels=labels)
        # the initial loss, then one pass per epoch; a validation set adds one
        assert n_passes == 1 + cfg.epochs
        assert n_val_passes == 1 + 2 * cfg.epochs
        # reusing the training pass's error decays the rates as before
        assert trace == val_trace
        assert np.array_equal(head.weights, val_head.weights)


class TestExtractorGradients:
    """Finetune uses only the kernel and bias gradients of the conv layer."""

    cfg = TrainConfig(epochs=3, batch_size=4, seed=5, patience=1)

    def run(self, toy):
        extractor, head = fresh_stack()
        return finetune_softmax(extractor, head, *toy, self.cfg)

    def test_outputs_equal_those_from_full_backward(self, toy, monkeypatch):
        ext, head, trace = self.run(toy)

        def from_full_backward(x, params, fmap, g_out):
            return conv_backward(x, params, g_out)[1:]

        monkeypatch.setattr(finetune, "conv_param_grads", from_full_backward)
        ext_full, head_full, trace_full = self.run(toy)
        assert ext.kernel.tobytes() == ext_full.kernel.tobytes()
        assert ext.bias.tobytes() == ext_full.bias.tobytes()
        assert head.weights.tobytes() == head_full.weights.tobytes()
        assert head.bias.tobytes() == head_full.bias.tobytes()
        assert trace == trace_full

    def test_input_gradient_is_never_computed(self, toy, monkeypatch):
        def forbidden(*args):
            raise AssertionError("finetune computed the patch gradient")

        monkeypatch.setattr(extractor_module, "_input_grad", forbidden)
        monkeypatch.setattr(extractor_module, "conv_backward", forbidden)
        _, _, trace = self.run(toy)
        assert len(trace) == self.cfg.epochs + 1


class TestStackedPassesMatchPerSampleOracle:
    """Stacked chunks give the bytes of one sample at a time."""

    def check(self, patches, labels, cfg, extractor=None, head=None, **val):
        default_extractor, default_head = fresh_stack()
        extractor = extractor or default_extractor
        head = head or default_head
        got = finetune_softmax(extractor, head, patches, labels, cfg, **val)
        want = finetune_oracle(extractor, head, patches, labels, cfg, **val)
        (ext, out_head, trace), (ext_o, head_o, trace_o) = got, want
        assert ext.kernel.tobytes() == ext_o.kernel.tobytes()
        assert ext.bias.tobytes() == ext_o.bias.tobytes()
        assert out_head.weights.tobytes() == head_o.weights.tobytes()
        assert out_head.bias.tobytes() == head_o.bias.tobytes()
        assert np.array(trace).tobytes() == np.array(trace_o).tobytes()

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 100])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    @pytest.mark.parametrize("with_val", [False, True])
    def test_batch_sizes_dropout_and_validation(self, toy, batch_size, dropout_rate,
                                                with_val):
        patches, labels = toy
        val = {}
        if with_val:
            val_patches, val_labels = correlation_task(3, seed=4)
            val = dict(val_patches=val_patches, val_labels=val_labels)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, dropout_rate=dropout_rate,
                          seed=7, patience=1)
        self.check(patches, labels, cfg, **val)

    def test_mixed_spatial_shapes(self):
        small, small_labels = correlation_task(5, hw=5, seed=1)
        large, large_labels = correlation_task(5, hw=7, seed=2)
        # runs of each shape, of several lengths, broken up by the other
        order = [0, 1, 10, 2, 3, 4, 11, 12, 13, 5, 14, 15, 16, 17, 18, 6, 7, 8, 9, 19]
        pool = small + large
        pool_labels = small_labels + large_labels
        patches = [pool[i] for i in order]
        labels = [pool_labels[i] for i in order]
        self.check(patches, labels, TrainConfig(epochs=3, batch_size=4, seed=2))

    def test_stride_and_padding(self, toy):
        rng = np.random.default_rng(3)
        extractor = ConvParams(rng.normal(0.0, 0.5, (3, 3, 2, 4)), np.zeros(4),
                               stride=2, padding=1)
        self.check(*toy, TrainConfig(epochs=3, batch_size=5, seed=4),
                   extractor=extractor)

    @pytest.mark.parametrize("patches_per_chunk", [1, 3])
    def test_small_chunk_budget(self, toy, monkeypatch, patches_per_chunk):
        patches, labels = toy
        sample_bytes = finetune._sample_bytes(patches[0].shape, fresh_stack()[0])
        monkeypatch.setattr(finetune, "STACK_BYTES", patches_per_chunk * sample_bytes)
        self.check(patches, labels, TrainConfig(epochs=3, batch_size=8, seed=6))

    @pytest.mark.parametrize("k", [1, 2])
    def test_many_output_channels_shrink_the_chunks(self, toy, k):
        # 64 channels pool to 4096-d descriptors, 57x the 6x6x2 patch bytes;
        # at k = 2 the 36 x 4 x 64 tap products outgrow them
        patches, labels = toy
        extractor = init_conv_params(k, 2, 64, seed=1)
        head = init_softmax_head(2, 64 * 64, seed=1)
        sample_bytes = finetune._sample_bytes(patches[0].shape, extractor)
        assert sample_bytes == 8 * max(64 * 64, 6 * 6 * k * k * 64) > 8 * patches[0].size
        runs = list(finetune._chunks(patches, range(len(patches)), extractor))
        assert max(map(len, runs)) == finetune.STACK_BYTES // sample_bytes
        self.check(patches, labels, TrainConfig(epochs=2, batch_size=8, seed=3),
                   extractor=extractor, head=head)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_chunks_hold_the_tap_products_within_the_budget(self, padding):
        # for 6x6x2 patches the tap products, a row of 3 * 3 * 4 per padded
        # position, are the largest per-sample array
        extractor = init_conv_params(3, 2, 4, padding=padding, seed=1)
        sample_bytes = finetune._sample_bytes((6, 6, 2), extractor)
        assert sample_bytes == 8 * (6 + 2 * padding) ** 2 * 3 * 3 * 4
        patches = [np.zeros((6, 6, 2))] * 40
        runs = list(finetune._chunks(patches, range(len(patches)), extractor))
        assert [i for run in runs for i in run] == list(range(len(patches)))
        for run in runs:
            assert len(run) * sample_bytes <= finetune.STACK_BYTES

    def test_conv_passes_scale_with_chunks_not_samples(self, monkeypatch):
        patches, labels = correlation_task(32)
        passes = []
        preactivation = extractor_module._preactivation

        def counted(*args):
            passes.append(1)
            return preactivation(*args)

        monkeypatch.setattr(extractor_module, "_preactivation", counted)
        extractor, head = fresh_stack()
        finetune_softmax(extractor, head, patches, labels,
                         TrainConfig(epochs=1, batch_size=8, seed=0))
        batches = len(patches) // 8
        sample_bytes = finetune._sample_bytes(patches[0].shape, extractor)
        chunks = math.ceil(len(patches) * sample_bytes / finetune.STACK_BYTES)
        # one pass per mini-batch, and the chunks of the loss passes before
        # and after the epoch; one pass per sample would make 3 * 64
        assert len(passes) <= batches + 2 * chunks


def map_patches(tmp_path, maps):
    """MapPatches over ``maps`` saved as .bfm files, with their ranges."""
    files = []
    for i, values in enumerate(maps):
        path = tmp_path / f"m{i}.bfm"
        save_feature_map(path, values)
        files.append(MapFile(str(path), values.shape, False))
    lo, span = np.array([ingest_range(v) for v in maps], dtype=np.float64).T
    return MapPatches(files, lo, span, MapReader())


class TestMapPatches:
    """A chunk's patches are formed from its maps and their ranges in one
    pass, with the bits of ``ingest_patch``; plain patches are stacked as
    they are."""

    @pytest.fixture
    def maps(self):
        rng = np.random.default_rng(8)
        maps = [rng.normal(3.0, 2.0, (5, 5, 2)).astype(np.float32) for _ in range(6)]
        maps[2] = np.full((5, 5, 2), -1.5, np.float32)  # constant: all zeros
        return maps

    def test_formed_chunk_equals_stacked_ingested_patches(self, tmp_path, maps):
        patches = map_patches(tmp_path, maps)
        x, _, _ = finetune._forward(patches, list(range(len(maps))), fresh_stack()[0])
        want = np.stack([ingest_patch(v) for v in maps])
        assert x.dtype == np.float64 and x.tobytes() == want.tobytes()
        assert not x[2].any()

    def test_chunk_of_one_is_a_stack_of_the_patch(self, tmp_path, maps):
        patches = map_patches(tmp_path, maps)
        for i in range(len(maps)):
            x, _, _ = finetune._forward(patches, [i], fresh_stack()[0])
            assert x.shape == (1, 5, 5, 2) and x.tobytes() == ingest_patch(maps[i]).tobytes()

    def test_plain_patches_keep_their_bits(self, toy):
        patches = [p.copy() for p in toy[0][:5]]
        patches[1][0, 0, 0] = -0.0
        patches[3][2, 1, 1] = 5e-324  # subnormal
        x, _, _ = finetune._forward(patches, [0, 1, 2, 3, 4], fresh_stack()[0])
        assert x.tobytes() == np.stack(patches).tobytes()

    @pytest.mark.parametrize("source", ["plain", "maps"])
    def test_every_conv_call_is_a_stack(self, tmp_path, monkeypatch, source):
        extractor, head = fresh_stack()
        rng = np.random.default_rng(9)
        # a 24x24x2 patch is past half of STACK_BYTES, so it runs as a chunk of one
        shapes = [(5, 5, 2)] * 3 + [(24, 24, 2)] + [(5, 5, 2)] * 4
        assert 2 * finetune._sample_bytes(shapes[3], extractor) > finetune.STACK_BYTES
        maps = [rng.random(shape).astype(np.float32) for shape in shapes]
        if source == "plain":
            patches = [ingest_patch(v) for v in maps]
        else:
            patches = map_patches(tmp_path, maps)
        inputs, forward = [], finetune.conv_forward

        def recorded(x, params):
            inputs.append(x.shape)
            return forward(x, params)

        monkeypatch.setattr(finetune, "conv_forward", recorded)
        finetune_softmax(extractor, head, patches, [0, 1] * 4,
                         TrainConfig(epochs=1, batch_size=8, seed=0))
        assert {len(shape) for shape in inputs} == {4}
        assert (1, 24, 24, 2) in inputs


class TestValidation:
    def test_empty_class_rejected(self, toy):
        patches, _ = toy
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            finetune_softmax(extractor, head, patches, [0] * len(patches),
                             TrainConfig(epochs=1))

    def test_label_out_of_range(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        for bad_value in (7, -1):
            bad = list(labels)
            bad[0] = bad_value
            with pytest.raises(DataError):
                finetune_softmax(extractor, head, patches, bad,
                                 TrainConfig(epochs=1))

    def test_divergence_raises_with_trace(self, toy):
        # the stable log-softmax keeps big-learning-rate runs finite, so
        # blow-ups surface as non-finite parameters
        patches, labels = toy
        extractor, head = fresh_stack()
        head.weights[0, 0] = np.inf
        cfg = TrainConfig(epochs=4, batch_size=4, seed=0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                finetune_softmax(extractor, head, patches, labels, cfg)
        assert isinstance(info.value.trace, list)

    def test_non_finite_patch_raises_numeric_error(self, toy):
        patches, labels = toy
        for bad_value in (np.nan, np.inf):
            bad = [p.copy() for p in patches]
            bad[5][1, 2, 0] = bad_value
            extractor, head = fresh_stack()
            with np.errstate(invalid="ignore"), pytest.raises(NumericError):
                finetune_softmax(extractor, head, bad, labels, TrainConfig(epochs=1))

    @pytest.mark.parametrize("given", ["val_patches", "val_labels"])
    def test_validation_set_needs_patches_and_labels(self, toy, given):
        patches, labels = toy
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            finetune_softmax(extractor, head, patches, labels, TrainConfig(epochs=1),
                             **{given: patches[:4] if given == "val_patches" else labels[:4]})

    def test_empty_validation_set(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            finetune_softmax(extractor, head, patches, labels, TrainConfig(epochs=1),
                             val_patches=[], val_labels=[])

    @pytest.mark.parametrize("bad_value", [2, -1])
    def test_validation_label_out_of_range(self, toy, bad_value):
        patches, labels = toy
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            finetune_softmax(extractor, head, patches, labels, TrainConfig(epochs=1),
                             val_patches=patches[:3], val_labels=[0, 1, bad_value])

    def test_misaligned_validation_set(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            finetune_softmax(extractor, head, patches, labels, TrainConfig(epochs=1),
                             val_patches=patches[:4], val_labels=labels[:3])

    def test_patches_other_than_3d_raise_shape_error(self, toy):
        patches, labels = toy
        extractor, head = fresh_stack()
        # several 2-D patches must not stack into what looks like one patch
        for bad in ([p[:, :, 0] for p in patches], [p[None] for p in patches]):
            with pytest.raises(ShapeError):
                finetune_softmax(extractor, head, bad, labels, TrainConfig(epochs=1))

    def test_loss_of_empty_set(self):
        extractor, head = fresh_stack()
        with pytest.raises(DataError):
            mean_loss_and_error([], [], extractor, head)

    def test_head_needs_two_classes(self):
        with pytest.raises(DataError):
            init_softmax_head(1, 4)
