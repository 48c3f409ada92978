import numpy as np
import pytest

from bilin.encoder import (
    SQRT_EPS,
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
from bilin.errors import NumericError, ShapeError

from conftest import pool_oracle


def loc_maps(a_locs, b_locs):
    a = np.asarray(a_locs, dtype=float).reshape(1, len(a_locs), -1)
    b = np.asarray(b_locs, dtype=float).reshape(1, len(b_locs), -1)
    return a, b


class TestBilinearPool:
    def test_two_location_example(self):
        a, b = loc_maps([[1, 0], [0, 1]], [[2, 3], [4, 5]])
        assert np.array_equal(bilinear_pool(a, b), [[2, 3], [4, 5]])

    def test_single_location_symmetric(self):
        a = np.array([1.0, 2.0]).reshape(1, 1, 2)
        out = bilinear_pool(a, a)
        assert np.array_equal(out, [[1, 2], [2, 4]])
        assert np.array_equal(out, out.T)

    def test_production_scale_dimension_chain(self):
        rng = np.random.default_rng(0)
        a = rng.random((27, 27, 512), dtype=np.float64)
        out = bilinear_pool(a, a)
        assert out.shape == (512, 512)
        assert encode(a).shape == (262144,)

    def test_matches_triple_loop_oracle(self, rng):
        for _ in range(20):
            h, w = rng.integers(1, 6, size=2)
            ca, cb = rng.integers(1, 9, size=2)
            a = rng.standard_normal((h, w, ca))
            b = rng.standard_normal((h, w, cb))
            np.testing.assert_allclose(
                bilinear_pool(a, b), pool_oracle(a, b), atol=1e-10
            )

    def test_orderless_under_location_permutation(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 4, 2))
        perm = rng.permutation(12)
        a_shuf = a.reshape(12, 5)[perm].reshape(3, 4, 5)
        b_shuf = b.reshape(12, 2)[perm].reshape(3, 4, 2)
        np.testing.assert_allclose(
            bilinear_pool(a, b), bilinear_pool(a_shuf, b_shuf), atol=1e-12
        )

    def test_bilinearity(self, rng):
        a1, a2 = rng.standard_normal((2, 3, 3, 4))
        b = rng.standard_normal((3, 3, 2))
        np.testing.assert_allclose(
            bilinear_pool(a1 + a2, b),
            bilinear_pool(a1, b) + bilinear_pool(a2, b),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            bilinear_pool(2.5 * a1, b), 2.5 * bilinear_pool(a1, b), atol=1e-12
        )
        np.testing.assert_allclose(
            bilinear_pool(a1, -3.0 * b), -3.0 * bilinear_pool(a1, b), atol=1e-12
        )

    def test_symmetric_case_is_psd(self, rng):
        a = rng.standard_normal((4, 4, 6))
        phi = bilinear_pool(a, a)
        assert np.array_equal(phi, phi.T)
        for _ in range(100):
            x = rng.standard_normal(6)
            assert x @ phi @ x >= -1e-10

    def test_accumulates_in_float64(self, rng):
        a = rng.random((2, 2, 3), dtype=np.float32)
        assert bilinear_pool(a, a).dtype == np.float64

    def test_spatial_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            bilinear_pool(rng.random((2, 3, 4)), rng.random((3, 2, 4)))

    def test_non_finite_raises(self):
        bad = np.full((1, 1, 2), np.nan)
        with pytest.raises(NumericError):
            bilinear_pool(bad, bad)


class TestBilinearPoolBackward:
    def test_single_location_identity_gradient(self):
        a = np.array([1.0, 2.0]).reshape(1, 1, 2)
        b = np.array([3.0, 4.0]).reshape(1, 1, 2)
        g_a, g_b = bilinear_pool_backward(a, b, np.eye(2))
        assert np.array_equal(g_a.ravel(), [3, 4])
        assert np.array_equal(g_b.ravel(), [1, 2])

    def test_zero_upstream_gradient(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 3, 5))
        g_a, g_b = bilinear_pool_backward(a, b, np.zeros((4, 5)))
        assert not g_a.any() and not g_b.any()

    def test_shared_input_matches_symmetrized_formula(self, rng):
        a = rng.standard_normal((2, 2, 3))
        g = rng.standard_normal((3, 3))
        g_a, g_b = bilinear_pool_backward(a, a, g)
        total = g_a + g_b
        expected = (a.reshape(-1, 3) @ (g + g.T)).reshape(a.shape)
        np.testing.assert_allclose(total, expected, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        a0 = rng.standard_normal((2, 3, 3))
        b0 = rng.standard_normal((2, 3, 4))
        g = rng.standard_normal((3, 4))

        def fn(flat_a):
            a = flat_a.reshape(a0.shape)
            value = float((bilinear_pool(a, b0) * g).sum())
            grad, _ = bilinear_pool_backward(a, b0, g)
            return value, grad

        report = finite_diff_check(fn, a0, step=1e-5)
        assert report.max_rel_error < 1e-6

    def test_second_stream_matches_finite_differences(self, rng):
        a0 = rng.standard_normal((2, 3, 3))
        b0 = rng.standard_normal((2, 3, 4))
        g = rng.standard_normal((3, 4))

        def fn(flat_b):
            b = flat_b.reshape(b0.shape)
            value = float((bilinear_pool(a0, b) * g).sum())
            _, grad = bilinear_pool_backward(a0, b, g)
            return value, grad

        report = finite_diff_check(fn, b0, step=1e-5)
        assert report.max_rel_error < 1e-6

    def test_shared_input_matches_finite_differences(self, rng):
        a0 = rng.standard_normal((2, 2, 3))
        g = rng.standard_normal((3, 3))

        def fn(flat_a):
            a = flat_a.reshape(a0.shape)
            value = float((bilinear_pool(a, a) * g).sum())
            g_a, g_b = bilinear_pool_backward(a, a, g)
            return value, g_a + g_b

        report = finite_diff_check(fn, a0, step=1e-5)
        assert report.max_rel_error < 1e-6

    def test_gradient_shape_mismatch_raises(self, rng):
        a = rng.standard_normal((2, 2, 3))
        with pytest.raises(ShapeError):
            bilinear_pool_backward(a, a, np.zeros((2, 3)))


class TestSignedSqrt:
    def test_exact_squares(self):
        assert np.array_equal(signed_sqrt([4, -9, 0]), [2, -3, 0])
        assert np.array_equal(signed_sqrt([0.25]), [0.5])

    def test_sign_pattern_preserved(self, rng):
        v = rng.standard_normal(50)
        assert np.array_equal(np.sign(signed_sqrt(v)), np.sign(v))

    def test_not_idempotent(self):
        v = np.array([16.0])
        twice = signed_sqrt(signed_sqrt(v))
        assert np.allclose(twice, v**0.25)
        assert not np.allclose(twice, signed_sqrt(v))

    def test_backward_at_four(self):
        g = signed_sqrt_backward(np.array([4.0]), np.array([1.0]))
        assert abs(g[0] - 0.25) < 1e-8

    def test_backward_matches_finite_differences(self):
        def fn(x):
            return float(signed_sqrt(x)[0]), signed_sqrt_backward(x, np.ones(1))

        report = finite_diff_check(fn, np.array([4.0]), step=1e-4)
        assert report.max_rel_error < 1e-6

    def test_backward_clamp_at_zero(self):
        g = signed_sqrt_backward(np.array([0.0]), np.array([1.0]))
        assert g[0] == pytest.approx(1.0 / (2.0 * np.sqrt(SQRT_EPS)))
        assert g[0] == pytest.approx(5000.0)

    def test_backward_zero_gradient(self, rng):
        v = rng.standard_normal(10)
        assert not signed_sqrt_backward(v, np.zeros(10)).any()


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3, 4]), [0.6, 0.8])

    def test_unit_vector_is_fixed_point(self, rng):
        v = rng.standard_normal(8)
        u = v / np.linalg.norm(v)
        np.testing.assert_allclose(l2_normalize(u), u, atol=1e-12)

    def test_zero_maps_to_zero(self):
        assert np.array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

    def test_backward_example(self):
        g = l2_normalize_backward(np.array([3.0, 4.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [0.128, -0.096], atol=1e-12)

    def test_backward_kills_radial_direction(self, rng):
        v = rng.standard_normal(6)
        g = l2_normalize_backward(v, 2.7 * v)
        np.testing.assert_allclose(g, np.zeros(6), atol=1e-12)

    def test_backward_zero_input(self):
        assert not l2_normalize_backward(np.zeros(3), np.ones(3)).any()

    def test_backward_matches_finite_differences(self, rng):
        v0 = rng.standard_normal(5) + 2.0
        r = rng.standard_normal(5)

        def fn(v):
            return float(r @ l2_normalize(v)), l2_normalize_backward(v, r)

        report = finite_diff_check(fn, v0, step=1e-5)
        assert report.max_rel_error < 1e-6


class TestEncode:
    def test_composition_matches_component_oracles(self):
        a, b = loc_maps([[1, 0], [0, 1]], [[2, 3], [4, 5]])
        expected = l2_normalize(signed_sqrt(np.array([2.0, 3.0, 4.0, 5.0])))
        np.testing.assert_allclose(encode(a, b), expected, atol=1e-12)

    def test_unit_norm_for_nonzero_input(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 3, 4))
            assert abs(np.linalg.norm(encode(a)) - 1.0) < 1e-6

    def test_scaling_raw_input(self, rng):
        a = rng.random((3, 3, 4)) + 0.1
        c = 3.7
        np.testing.assert_allclose(
            bilinear_pool(c * a, c * a), c**2 * bilinear_pool(a, a), rtol=1e-12
        )
        assert np.argmax(encode(c * a)) == np.argmax(encode(a))

    def test_symmetric_default_second_argument(self, rng):
        a = rng.standard_normal((2, 2, 3))
        np.testing.assert_allclose(encode(a), encode(a, a), atol=1e-12)

    def test_in_place_chain_matches_quotient_oracle_bit_for_bit(self, rng):
        def oracle(x):
            y = np.sign(x) * np.sqrt(np.abs(x))
            norm = np.linalg.norm(y)
            return y / norm if norm else y

        vectors = [np.zeros(7), np.full(7, -0.0)]
        for _ in range(20):
            v = rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30)
            v[rng.random(64) < 0.2] = 0.0
            v[rng.random(64) < 0.2] = -0.0
            vectors.append(v)
        for v in vectors:
            before = v.tobytes()
            assert l2_normalize(signed_sqrt(v)).tobytes() == oracle(v).tobytes()
            assert v.tobytes() == before  # the public functions copy
        maps = [rng.standard_normal((3, 3, 4)), np.zeros((2, 2, 3))]
        maps[0][..., 1] = 0.0
        for a in maps:
            pooled = bilinear_pool(a).reshape(-1)
            assert encode(a).tobytes() == oracle(pooled).tobytes()

    def test_all_zero_map_encodes_to_zero(self):
        assert not encode(np.zeros((2, 2, 3))).any()

    def test_backward_matches_finite_differences(self, rng):
        a0 = rng.uniform(0.2, 1.0, (4, 4, 3))
        r = rng.standard_normal(9)

        def fn(a):
            a = a.reshape(a0.shape)
            g = encode_backward_shared(a, r)
            return float(r @ encode(a)), g

        report = finite_diff_check(fn, a0, step=1e-4)
        assert report.max_rel_error < 1e-4

    def test_backward_two_stream(self, rng):
        a0 = rng.uniform(0.2, 1.0, (2, 3, 3))
        b0 = rng.uniform(0.2, 1.0, (2, 3, 4))
        r = rng.standard_normal(12)

        def fn(a):
            a = a.reshape(a0.shape)
            g_a, _ = encode_backward(a, b0, r)
            return float(r @ encode(a, b0)), g_a

        report = finite_diff_check(fn, a0, step=1e-4)
        assert report.max_rel_error < 1e-4


class TestFirstOrderDescriptor:
    def test_is_channel_mean_normalized(self, rng):
        a = rng.random((4, 4, 3))
        mean = a.reshape(-1, 3).mean(axis=0)
        np.testing.assert_allclose(
            first_order_descriptor(a), l2_normalize(signed_sqrt(mean)), atol=1e-12
        )

    def test_dimension(self, rng):
        assert first_order_descriptor(rng.random((5, 5, 7))).shape == (7,)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        def fn(x):
            return float((x**2).sum()), 2.0 * x

        report = finite_diff_check(fn, np.array([3.0]), step=1e-4)
        assert report.max_rel_error < 1e-6
        assert report.probe_count == 1

    def test_constant_function(self):
        def fn(x):
            return 7.0, np.zeros_like(x)

        report = finite_diff_check(fn, np.ones(5), step=1e-4)
        assert report.max_abs_error < 1e-10
        assert report.max_rel_error == 0.0

    def test_probe_sampling_records_count(self, rng):
        def fn(x):
            return float((x**2).sum()), 2.0 * x

        report = finite_diff_check(fn, rng.random(40), step=1e-4, max_probes=7)
        assert report.probe_count == 7

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: (0.0, x), np.ones(2), step=0.0)

    def test_non_finite_value_raises(self):
        def fn(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(NumericError):
            finite_diff_check(fn, np.ones(2), step=1e-4)
