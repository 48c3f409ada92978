import numpy as np
import pytest

from bilin.encoder import encode, encode_backward_shared, finite_diff_check
from bilin.errors import ShapeError
from bilin.extractor import (
    ConvParams,
    conv_backward,
    conv_forward,
    conv_output_shape,
    conv_param_grads,
    ingest_patch,
    init_conv_params,
)

from conftest import conv_grad_oracle, conv_oracle, make_conv


class TestConvForward:
    def test_identity_kernel_is_relu(self, rng):
        x = rng.standard_normal((4, 5, 3))
        p = ConvParams(kernel=np.eye(3).reshape(1, 1, 3, 3), bias=np.zeros(3))
        np.testing.assert_allclose(conv_forward(x, p), np.maximum(x, 0.0))

    def test_ones_kernel_local_sums(self):
        x = np.arange(9, dtype=float).reshape(3, 3, 1)
        p = ConvParams(kernel=np.ones((2, 2, 1, 1)), bias=np.zeros(1))
        np.testing.assert_array_equal(
            conv_forward(x, p).squeeze(), [[8, 12], [20, 24]]
        )

    def test_negative_sums_clamped(self):
        x = -np.arange(9, dtype=float).reshape(3, 3, 1)
        p = ConvParams(kernel=np.ones((2, 2, 1, 1)), bias=np.zeros(1))
        assert not conv_forward(x, p).any()

    def test_large_negative_bias_saturates(self, rng):
        x = rng.random((5, 5, 2))
        p = ConvParams(kernel=rng.standard_normal((3, 3, 2, 4)),
                       bias=np.full(4, -1e9))
        assert not conv_forward(x, p).any()

    def test_output_is_rectified(self, rng):
        x = rng.standard_normal((6, 6, 2))
        p = ConvParams(kernel=rng.standard_normal((3, 3, 2, 3)),
                       bias=rng.standard_normal(3))
        assert conv_forward(x, p).min() >= 0.0

    def test_matches_loop_oracle(self, rng):
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]:
            x = rng.standard_normal((8, 7, 4))
            p = ConvParams(
                kernel=rng.standard_normal((3, 3, 4, 3)),
                bias=rng.standard_normal(3),
                stride=stride,
                padding=padding,
            )
            np.testing.assert_allclose(
                conv_forward(x, p), conv_oracle(x, p), atol=1e-10
            )

    def test_output_shape_formula(self):
        p = ConvParams(np.zeros((3, 3, 1, 1)), np.zeros(1), stride=2, padding=1)
        assert conv_output_shape(7, 5, p) == ((7 + 2 - 3) // 2 + 1,
                                              (5 + 2 - 3) // 2 + 1)

    def test_collapsed_output_raises(self, rng):
        x = rng.random((2, 2, 1))
        p = ConvParams(np.zeros((3, 3, 1, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv_forward(x, p)

    def test_channel_mismatch_raises(self, rng):
        x = rng.random((4, 4, 2))
        p = ConvParams(np.zeros((2, 2, 3, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv_forward(x, p)


class TestGeometryChecks:
    """A stride that is not a positive int, or a padding that is not a
    non-negative int, is a ShapeError at every conv entry point."""

    @pytest.mark.parametrize("stride, padding",
                             [(0, 0), (-1, 0), (1.5, 0), ("2", 0), (1, -1), (1, 0.5)])
    def test_bad_stride_or_padding_raises(self, rng, stride, padding):
        x = rng.random((5, 5, 2))
        p = ConvParams(rng.standard_normal((2, 2, 2, 3)), np.zeros(3), stride, padding)
        g_out = np.zeros((4, 4, 3))
        calls = (lambda: conv_forward(x, p),
                 lambda: conv_param_grads(x, p, g_out, g_out),
                 lambda: conv_backward(x, p, g_out))
        for call in calls:
            with pytest.raises(ShapeError, match="stride must be a positive int"):
                call()

    def test_numpy_ints_pass(self, rng):
        x = rng.random((5, 5, 2))
        p = ConvParams(rng.standard_normal((2, 2, 2, 3)), np.zeros(3),
                       np.int64(2), np.int32(1))
        np.testing.assert_allclose(conv_forward(x, p), conv_oracle(x, p), atol=1e-10)


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        x = rng.random((4, 4, 2))
        p = make_conv(0, k=2, c_in=2, c_out=3)
        g_x, g_k, g_b = conv_backward(x, p, np.zeros((3, 3, 3)))
        assert not g_x.any() and not g_k.any() and not g_b.any()

    def test_one_by_one_kernel_reduces_to_linear_layer(self, rng):
        x = rng.random((3, 3, 2)) + 0.5
        kernel = rng.random((1, 1, 2, 3)) + 0.5
        p = ConvParams(kernel=kernel, bias=np.full(3, 0.1))
        g_out = rng.standard_normal((3, 3, 3))
        pre = x @ kernel[0, 0] + p.bias
        mask = pre > 0
        g_pre = g_out * mask
        g_x, g_k, g_b = conv_backward(x, p, g_out)
        np.testing.assert_allclose(g_x, g_pre @ kernel[0, 0].T, atol=1e-12)
        np.testing.assert_allclose(
            g_k[0, 0], x.reshape(-1, 2).T @ g_pre.reshape(-1, 3), atol=1e-12
        )
        np.testing.assert_allclose(g_b, g_pre.sum(axis=(0, 1)), atol=1e-12)

    def test_relu_inactive_positions_do_not_reach_kernel(self, rng):
        x = rng.random((4, 4, 2))
        p = ConvParams(
            kernel=rng.standard_normal((2, 2, 2, 2)), bias=np.full(2, -1e9)
        )
        _, g_k, g_b = conv_backward(x, p, np.ones((3, 3, 2)))
        assert not g_k.any() and not g_b.any()

    def test_matches_finite_differences_wrt_input(self, rng):
        p = make_conv(3)
        x0 = rng.uniform(0.1, 1.0, (5, 5, 3))
        g_out = rng.standard_normal((4, 4, 3))

        def fn(x):
            x = x.reshape(x0.shape)
            value = float((conv_forward(x, p) * g_out).sum())
            g_x, _, _ = conv_backward(x, p, g_out)
            return value, g_x

        assert finite_diff_check(fn, x0, step=1e-4).max_rel_error < 1e-4

    def test_matches_finite_differences_wrt_kernel(self, rng):
        p = make_conv(4)
        x = rng.uniform(0.1, 1.0, (5, 5, 3))
        g_out = rng.standard_normal((4, 4, 3))

        def fn(kflat):
            p2 = ConvParams(kflat.reshape(p.kernel.shape), p.bias)
            value = float((conv_forward(x, p2) * g_out).sum())
            _, g_k, _ = conv_backward(x, p2, g_out)
            return value, g_k

        assert finite_diff_check(fn, p.kernel, step=1e-4).max_rel_error < 1e-4

    def test_matches_finite_differences_wrt_bias(self, rng):
        p = make_conv(5)
        x = rng.uniform(0.1, 1.0, (5, 5, 3))
        g_out = rng.standard_normal((4, 4, 3))

        def fn(bias):
            p2 = ConvParams(p.kernel, bias)
            value = float((conv_forward(x, p2) * g_out).sum())
            _, _, g_b = conv_backward(x, p2, g_out)
            return value, g_b

        assert finite_diff_check(fn, p.bias, step=1e-4).max_rel_error < 1e-4

    def test_stride_and_padding_gradients(self, rng):
        kernel = rng.standard_normal((3, 3, 2, 2)) * 0.4
        p = ConvParams(kernel, rng.uniform(0.3, 0.5, 2), stride=2, padding=1)
        x0 = rng.uniform(0.1, 1.0, (6, 6, 2))
        g_out_shape = conv_output_shape(6, 6, p) + (2,)
        g_out = rng.standard_normal(g_out_shape)

        def fn(x):
            x = x.reshape(x0.shape)
            value = float((conv_forward(x, p) * g_out).sum())
            g_x, _, _ = conv_backward(x, p, g_out)
            return value, g_x

        assert finite_diff_check(fn, x0, step=1e-4).max_rel_error < 1e-4

    def test_gradient_shape_mismatch_raises(self, rng):
        x = rng.random((4, 4, 2))
        p = make_conv(0, k=2, c_in=2, c_out=3)
        with pytest.raises(ShapeError):
            conv_backward(x, p, np.zeros((2, 2, 3)))


class TestGradientOracle:
    """Both backward entry points equal the loop gradients, for one patch
    and for each patch of a stack."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("c_in, c_out", [(3, 2), (2, 5)])
    def test_matches_loop_gradients(self, rng, k, stride, padding, c_in, c_out):
        # a zero-mean bias leaves a mix of live and ReLU-dead positions
        p = ConvParams(rng.standard_normal((k, k, c_in, c_out)), rng.standard_normal(c_out),
                       stride, padding)
        xs = rng.random((3, 6, 5, c_in))
        g_outs = rng.standard_normal(conv_forward(xs, p).shape)
        stacked = conv_backward(xs, p, g_outs)
        stacked_params = conv_param_grads(xs, p, conv_forward(xs, p), g_outs)
        for i, (x, g_out) in enumerate(zip(xs, g_outs)):
            g_x, g_k, g_b = conv_grad_oracle(x, p, g_out)
            single = conv_backward(x, p, g_out)
            single_params = conv_param_grads(x, p, conv_forward(x, p), g_out)
            for got in (single, [a[i] for a in stacked]):
                for actual, expected in zip(got, (g_x, g_k, g_b)):
                    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)
            for got in (single_params, [a[i] for a in stacked_params]):
                for actual, expected in zip(got, (g_k, g_b)):
                    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-10)


class TestConvParamGrads:
    """The parameter half alone equals conv_backward's kernel and bias
    gradients bit for bit."""

    def assert_halves_agree(self, x, p, g_out):
        _, g_k, g_b = conv_backward(x, p, g_out)
        k_only, b_only = conv_param_grads(x, p, conv_forward(x, p), g_out)
        assert k_only.tobytes() == g_k.tobytes()
        assert b_only.tobytes() == g_b.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_conv_backward(self, rng, k, stride, padding):
        x = rng.random((7, 6, 3))
        # a zero-mean bias leaves a mix of live and ReLU-dead positions
        p = ConvParams(rng.standard_normal((k, k, 3, 4)),
                       rng.standard_normal(4), stride, padding)
        fmap = conv_forward(x, p)
        assert (fmap == 0.0).any() and (fmap > 0.0).any()
        self.assert_halves_agree(x, p, rng.standard_normal(fmap.shape))

    def test_all_positions_dead(self, rng):
        x = rng.random((5, 5, 2))
        p = ConvParams(rng.standard_normal((2, 2, 2, 3)), np.full(3, -1e9))
        self.assert_halves_agree(x, p, rng.standard_normal((4, 4, 3)))

    def test_zero_upstream_gradient(self, rng):
        x = rng.random((5, 5, 2))
        p = make_conv(6, k=3, c_in=2, c_out=3)
        g_out = np.zeros((3, 3, 3))
        self.assert_halves_agree(x, p, g_out)
        g_k, g_b = conv_param_grads(x, p, conv_forward(x, p), g_out)
        assert not g_k.any() and not g_b.any()

    @pytest.mark.parametrize("which", ["fmap", "g_out"])
    def test_shape_mismatch_raises(self, rng, which):
        x = rng.random((4, 4, 2))
        p = make_conv(0, k=2, c_in=2, c_out=3)
        args = {"fmap": conv_forward(x, p), "g_out": np.zeros((3, 3, 3))}
        args[which] = np.zeros((2, 3, 3))
        with pytest.raises(ShapeError):
            conv_param_grads(x, p, args["fmap"], args["g_out"])


class TestStacks:
    """An (N, H, W, C) stack gives each patch's result, bit for bit."""

    @pytest.mark.parametrize("k, stride, padding", [(1, 1, 0), (2, 2, 1), (3, 1, 1)])
    def test_each_function_matches_per_patch_calls(self, rng, k, stride, padding):
        xs = rng.random((4, 7, 6, 3))
        p = ConvParams(rng.standard_normal((k, k, 3, 4)), rng.standard_normal(4),
                       stride, padding)
        fmaps = conv_forward(xs, p)
        g_out = rng.standard_normal(fmaps.shape)
        g_k, g_b = conv_param_grads(xs, p, fmaps, g_out)
        g_xs, g_k_full, g_b_full = conv_backward(xs, p, g_out)
        for i, x in enumerate(xs):
            fmap = conv_forward(x, p)
            assert fmaps[i].tobytes() == fmap.tobytes()
            k_one, b_one = conv_param_grads(x, p, fmap, g_out[i])
            assert g_k[i].tobytes() == k_one.tobytes()
            assert g_b[i].tobytes() == b_one.tobytes()
            for full, one in zip((g_xs, g_k_full, g_b_full), conv_backward(x, p, g_out[i])):
                assert full[i].tobytes() == one.tobytes()

    # the benchmark's patches: many small ones to a chunk, and the paper's
    # 27x27x512 maps
    @pytest.mark.parametrize("shape", [(14, 6, 6, 16), (2, 27, 27, 512)])
    def test_bench_shapes_match_per_patch_calls(self, rng, shape):
        xs = rng.random(shape)
        p = init_conv_params(3, shape[-1], 4, seed=1)
        p.bias = rng.normal(0.0, 0.1, 4)
        fmaps = conv_forward(xs, p)
        g_out = rng.standard_normal(fmaps.shape)
        g_k, g_b = conv_param_grads(xs, p, fmaps, g_out)
        full = conv_backward(xs, p, g_out)
        for i, x in enumerate(xs):
            fmap = conv_forward(x, p)
            assert fmaps[i].tobytes() == fmap.tobytes()
            for stacked, one in zip((g_k, g_b), conv_param_grads(x, p, fmap, g_out[i])):
                assert stacked[i].tobytes() == one.tobytes()
            for stacked, one in zip(full, conv_backward(x, p, g_out[i])):
                assert stacked[i].tobytes() == one.tobytes()

    def test_other_ranks_raise(self, rng):
        p = make_conv(0, k=2, c_in=2, c_out=3)
        for shape in ((4, 4), (1, 2, 4, 4, 2)):
            with pytest.raises(ShapeError):
                conv_forward(rng.random(shape), p)


class TestEndToEndGradient:
    def test_conv_into_encoder_chain(self, rng):
        p = make_conv(11)
        x0 = rng.uniform(0.1, 1.0, (4, 4, 3))
        r = rng.standard_normal(9)

        def fn(x):
            x = x.reshape(x0.shape)
            fmap = conv_forward(x, p)
            g_f = encode_backward_shared(fmap, r)
            g_x, _, _ = conv_backward(x, p, g_f)
            return float(r @ encode(fmap)), g_x

        assert finite_diff_check(fn, x0, step=1e-4).max_rel_error < 1e-4


class TestInit:
    def test_seeded_and_scaled(self):
        a = init_conv_params(3, 4, 8, seed=5)
        b = init_conv_params(3, 4, 8, seed=5)
        assert np.array_equal(a.kernel, b.kernel)
        assert not a.bias.any()
        expected_std = np.sqrt(2.0 / (3 * 3 * 4))
        assert abs(a.kernel.std() - expected_std) / expected_std < 0.2

    def test_different_seeds_differ(self):
        a = init_conv_params(3, 4, 8, seed=5)
        b = init_conv_params(3, 4, 8, seed=6)
        assert not np.array_equal(a.kernel, b.kernel)


class TestIngestPatch:
    def test_values_scaled_to_unit_interval(self, rng):
        patch = ingest_patch(rng.normal(5.0, 3.0, (6, 6, 2)))
        assert patch.min() == 0.0 and patch.max() == 1.0

    def test_constant_maps_to_zeros(self):
        assert not ingest_patch(np.full((3, 3, 1), 7.0)).any()

    def test_two_dim_input_gets_channel_axis(self):
        assert ingest_patch(np.eye(3)).shape == (3, 3, 1)
