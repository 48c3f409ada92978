import tracemalloc

import numpy as np
import pytest

from bilin import svm
from bilin.errors import DegenerateModelError, ProtocolError, ShapeError
from bilin.io import Outputs, StoreReader, StoreWriter, load_store, save_gallery
from bilin.svm import (GalleryModelSet, LinearModel, fit_ovr_svm, rescale_model,
                       train_ovr_svm)

from conftest import hinge_objective


def blobs(rng, centers, per=10, sigma=0.3):
    X, labels = [], []
    for name, c in centers.items():
        X.append(rng.normal(c, sigma, (per, len(c))))
        labels += [name] * per
    return np.vstack(X), labels


def single(w, b=0.0, rescale_a=1.0, rescale_b=0.0, identity="a"):
    """A one-identity gallery."""
    return GalleryModelSet([identity], np.atleast_2d(np.asarray(w, dtype=float)),
                           np.array([b]), np.array([rescale_a]),
                           np.array([rescale_b]))


def ovr_loop_oracle(X, labels, reg_c=1.0, epochs=100, balanced=False):
    """One identity at a time, the bias augmented into ``v`` through an
    explicit ``[X, 1]`` copy, then median rescaling by hand."""
    X = np.asarray(X, dtype=np.float64)
    n, dim = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (reg_c * n)
    ids = sorted(set(labels))
    W, b, a, c = [], [], [], []
    for ident in ids:
        y = np.array([1.0 if l == ident else -1.0 for l in labels])
        weights = np.ones(n)
        if balanced:
            weights = np.where(y > 0, (y < 0).sum() / (y > 0).sum(), 1.0)
        v = np.zeros(dim + 1)
        for t in range(1, epochs + 1):
            violating = y * (Z @ v) < 1.0
            subgrad = lam * v - (weights * violating * y) @ Z / n
            v = v - subgrad / (lam * t)
        scores = Z @ v
        med_pos = np.median(scores[y > 0])
        med_neg = np.median(scores[y < 0])
        W.append(v[:dim])
        b.append(v[dim])
        a.append(2.0 / (med_pos - med_neg))
        c.append(1.0 - a[-1] * med_pos)
    return ids, np.array(W), np.array(b), np.array(a), np.array(c)


def train_binary_svm(X, y, balanced=False, **kwargs):
    """``(w, b)`` of the positive class: its column of a two-identity
    one-vs-rest gallery, before rescaling.  With n >= dim that is the
    primal loop on a single +-1 label column; ``balanced`` weighs each
    positive n_neg / n_pos."""
    labels = ["pos" if v > 0 else "neg" for v in y]
    gallery = train_ovr_svm(X, labels, balanced=balanced, **kwargs)
    j = gallery.identity_ids.index("pos")
    return gallery.w[j], float(gallery.b[j])


class TestBinarySolver:
    def test_separable_1d_recovers_margin(self):
        X = np.array([[2.0], [3.0], [4.0], [-2.0], [-3.0], [-4.0]])
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        w, b = train_binary_svm(X, y)
        assert np.all(np.sign(X @ w + b) == y)
        # max-margin solution for this data is w = 0.5, b = 0
        assert abs(w[0] - 0.5) < 1e-6 and abs(b) < 1e-6
        assert hinge_objective(w, b, X, y, 1.0) <= \
            hinge_objective(np.zeros(1), 0.0, X, y, 1.0)

    def test_objective_non_increasing_endpoints(self, rng):
        X = rng.standard_normal((30, 5))
        y = np.sign(X[:, 0] + 0.1 * rng.standard_normal(30))
        w, b = train_binary_svm(X, y, reg_c=2.0, epochs=150)
        assert hinge_objective(w, b, X, y, 2.0) <= \
            hinge_objective(np.zeros(5), 0.0, X, y, 2.0)

    def test_deterministic(self, rng):
        X = rng.standard_normal((20, 4))
        y = np.sign(rng.standard_normal(20))
        y[y == 0] = 1.0
        w1, b1 = train_binary_svm(X, y)
        w2, b2 = train_binary_svm(X, y)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_balance_weights_shift_boundary(self, rng):
        X = np.vstack([rng.normal(1.5, 0.2, (2, 1)),
                       rng.normal(-1.5, 0.2, (40, 1))])
        y = np.array([1.0] * 2 + [-1.0] * 40)
        w_plain, b_plain = train_binary_svm(X, y)
        w_bal, b_bal = train_binary_svm(X, y, balanced=True)  # positives weigh 40 / 2 = 20
        assert (w_bal[0], b_bal) != (w_plain[0], b_plain)
        assert np.all(np.sign(X @ w_bal + b_bal) == y)


class TestRescaleModel:
    def test_affine_solution_from_medians(self):
        m = LinearModel("a", np.array([1.0]), 0.0)
        out = rescale_model(m, [2.0, 2.0, 9.0], [-0.5, -0.5, -7.0])
        assert out.rescale_a == pytest.approx(0.8)
        assert out.rescale_b == pytest.approx(-0.6)
        assert 0.8 * 2.0 - 0.6 == pytest.approx(1.0)
        assert 0.8 * -0.5 - 0.6 == pytest.approx(-1.0)

    def test_identity_when_medians_already_plus_minus_one(self):
        m = LinearModel("a", np.array([1.0]), 0.0)
        out = rescale_model(m, [1.0, 1.0], [-1.0, -1.0])
        assert out.rescale_a == pytest.approx(1.0)
        assert out.rescale_b == pytest.approx(0.0)

    def test_equal_medians_rejected(self):
        m = LinearModel("a", np.array([1.0]), 0.0)
        with pytest.raises(DegenerateModelError):
            rescale_model(m, [0.5], [0.5])

    def test_median_property_on_random_score_sets(self, rng):
        for _ in range(50):
            n_pos = int(rng.integers(1, 30))
            n_neg = int(rng.integers(1, 50))
            pos = rng.normal(2.0, 1.0, n_pos)
            neg = rng.normal(-2.0, 1.0, n_neg)
            if np.median(pos) <= np.median(neg):
                continue
            m = rescale_model(LinearModel("x", np.ones(1), 0.0), pos, neg)
            assert abs(np.median(m.rescale_a * pos + m.rescale_b) - 1.0) < 1e-9
            assert abs(np.median(m.rescale_a * neg + m.rescale_b) + 1.0) < 1e-9

    def test_rescaling_preserves_rank(self, rng):
        m = LinearModel("a", rng.standard_normal(4), 0.2)
        r = rescale_model(m, [3.0, 4.0], [-1.0, 0.1])
        raw = single(m.w, m.b)
        rescaled = single(r.w, r.b, r.rescale_a, r.rescale_b)
        for _ in range(20):
            d1, d2 = rng.standard_normal((2, 4))
            before = raw.score_vector(d1) - raw.score_vector(d2)
            after = rescaled.score_vector(d1) - rescaled.score_vector(d2)
            assert np.sign(before) == np.sign(after)


class TestRescaleAtOnce:
    """Each identity's rescale from its column of the (n, k) score matrix,
    one identity at a time with ``np.median``."""

    def test_rescales_are_the_bits_of_the_median_formula(self, rng):
        labels = rng.integers(0, 6, 50)
        positive = labels[:, None] == np.arange(6)
        scores = rng.normal(size=(50, 6)) + 2.0 * positive
        a, b = svm._rescales(scores, positive, [f"id{j}" for j in range(6)])
        for j in range(6):
            med_pos = float(np.median(scores[positive[:, j], j]))
            med_neg = float(np.median(scores[~positive[:, j], j]))
            expected = 2.0 / (med_pos - med_neg)
            assert (a[j], b[j]) == (expected, 1.0 - expected * med_pos)

    def test_the_first_degenerate_identity_is_named(self):
        positive = np.eye(4, 3, dtype=bool) | np.eye(4, 3, -1, dtype=bool)
        scores = np.where(positive, 1.0, 0.0)
        scores[:, 1:] = [[3.0, 3.0], [0.5, 3.0], [0.5, 1.0], [3.0, 0.5]]  # ids b and c
        with pytest.raises(DegenerateModelError) as info:
            svm._rescales(scores, positive, ["a", "b", "c"])
        with pytest.raises(DegenerateModelError) as alone:
            rescale_model(LinearModel("b", np.ones(1), 0.0), [0.5, 0.5], [3.0, 3.0])
        assert str(info.value) == str(alone.value)


class TestScore:
    def test_zero_model_scores_zero(self, rng):
        assert single(np.zeros(5)).score_vector(rng.standard_normal(5)) == 0.0

    def test_affine_arithmetic(self):
        gallery = single([1.0, 0.0], rescale_a=2.0, rescale_b=-1.0)
        assert gallery.score_vector(np.array([3.0, 5.0])) == 5.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            single(np.zeros(3)).score_vector(np.zeros(4))

    def test_stack_scores_match_single_descriptors(self, rng):
        X, labels = blobs(rng, {"a": [2, 0, 1], "b": [-2, 0, 0], "c": [0, 2, -1]})
        trained = train_ovr_svm(X, labels)
        # a float32 gallery as load_gallery reads it, scoring 256-d probes
        k, dim = 150, 256
        loaded = GalleryModelSet([f"id{j:03d}" for j in range(k)],
                                 rng.standard_normal((k, dim)).astype(np.float32),
                                 *rng.random((3, k)).astype(np.float32) + 0.5)
        probes = rng.standard_normal((64, dim)).astype(np.float32)
        for gallery, stack in ((trained, X), (loaded, probes)):
            stacked = gallery.score_vector(stack)
            assert stacked.shape == (len(stack), len(gallery.identity_ids))
            for x, row in zip(stack, stacked):
                assert np.array_equal(gallery.score_vector(x), row)


class TestTrainOvr:
    def test_one_model_per_identity_sorted(self, rng):
        X, labels = blobs(rng, {"carol": [0, 3], "alice": [3, 0], "bob": [-3, -3]})
        gallery = train_ovr_svm(X, labels)
        assert gallery.identity_ids == ["alice", "bob", "carol"]
        assert gallery.descriptor_dim == 2

    def test_training_points_classified_correctly(self, rng):
        X, labels = blobs(rng, {"a": [3, 0], "b": [0, 3], "c": [-3, -3]})
        gallery = train_ovr_svm(X, labels)
        for x, label in zip(X, labels):
            scores = gallery.score_vector(x)
            assert gallery.identity_ids[int(np.argmax(scores))] == label

    def test_duplicating_samples_keeps_held_out_signs(self, rng):
        X, labels = blobs(rng, {"a": [2.5, 0], "b": [-2.5, 0]}, per=8)
        held_out = rng.normal(0.0, 2.0, (20, 2))
        g1 = train_ovr_svm(X, labels)
        g2 = train_ovr_svm(np.vstack([X, X]), labels + labels)
        for x in held_out:
            assert np.array_equal(np.sign(g1.score_vector(x)),
                                  np.sign(g2.score_vector(x)))

    def test_single_identity_rejected(self, rng):
        with pytest.raises(ProtocolError):
            train_ovr_svm(rng.standard_normal((5, 3)), ["only"] * 5)

    def test_label_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            train_ovr_svm(rng.standard_normal((5, 3)), ["a", "b"])

    def test_non_matrix_rejected(self, rng):
        with pytest.raises(ShapeError):
            train_ovr_svm(rng.standard_normal(5), ["a"] * 5)

    def test_deterministic_models(self, rng):
        X, labels = blobs(rng, {"a": [2, 0], "b": [-2, 0]})
        g1 = train_ovr_svm(X, labels)
        g2 = train_ovr_svm(X, labels)
        for field in ("w", "b", "rescale_a", "rescale_b"):
            assert np.array_equal(getattr(g1, field), getattr(g2, field))

    # 28 media: the Gram form runs only when they are fewer than the dims
    @pytest.mark.parametrize("balanced, dim, form", [
        pytest.param(balanced, dim, form, id=str(balanced) if dim == 3 else f"{dim}-{balanced}")
        for dim, form in ((3, "_subgradient_descent"), (28, "_subgradient_descent"),
                          (29, "_gram_descent"), (300, "_gram_descent"))
        for balanced in (False, True)])
    def test_matches_per_identity_loop_oracle(self, rng, monkeypatch, balanced, dim, form):
        X, labels = blobs(rng, {"d": [1, 1, 0], "a": [2, 0, 1], "b": [-1, 0, 1],
                                "c": [0, -2, 0]}, per=7, sigma=0.8)
        labels[3] = "c"  # uneven class sizes exercise the balance weights
        X = np.hstack([X, rng.normal(0.0, 0.3, (len(X), dim - 3))])
        ran, solver = [], getattr(svm, form)
        monkeypatch.setattr(svm, form, lambda *a: ran.append(form) or solver(*a))
        monkeypatch.setattr(svm, "GRAM_BLOCK", 64)  # several blocks, one partial
        gallery = train_ovr_svm(X, labels, reg_c=0.5, epochs=60,
                                balanced=balanced)
        ids, W, b, a, c = ovr_loop_oracle(X, labels, reg_c=0.5, epochs=60,
                                          balanced=balanced)
        assert ran == [form]
        assert gallery.identity_ids == ids
        np.testing.assert_allclose(gallery.w, W, rtol=1e-12,
                                   atol=1e-12 * np.abs(W).max())
        np.testing.assert_allclose(gallery.b, b, rtol=1e-12,
                                   atol=1e-12 * np.abs(b).max())
        np.testing.assert_allclose(gallery.rescale_a, a, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gallery.rescale_b, c, rtol=0, atol=1e-9)

    def test_few_media_train_without_a_float64_copy(self, rng):
        n, dim = 12, 40000
        X = rng.standard_normal((n, dim)).astype(np.float32)
        labels = [f"id{i % 4}" for i in range(n)]
        tracemalloc.start()
        try:
            gallery = train_ovr_svm(X, labels, epochs=25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gallery.w.shape == (4, dim)
        assert peak < 8 * n * dim  # the size of a float64 copy of X

    def test_balanced_flag_trains(self, rng):
        X, labels = blobs(rng, {"a": [2, 0], "b": [-2, 0], "c": [0, 2]}, per=6)
        gallery = train_ovr_svm(X, labels, balanced=True)
        assert len(gallery.identity_ids) == 3

    def test_rescaled_median_scores(self, rng):
        X, labels = blobs(rng, {"a": [3, 0], "b": [0, 3], "c": [-3, -3]})
        gallery = train_ovr_svm(X, labels)
        scores = gallery.score_vector(X)
        for j, ident in enumerate(gallery.identity_ids):
            own = np.array(labels) == ident
            assert np.median(scores[own, j]) == pytest.approx(1.0, abs=1e-9)
            assert np.median(scores[~own, j]) == pytest.approx(-1.0, abs=1e-9)


def store_of(path, X):
    """Write the rows of ``X`` as a descriptor store at ``path``; their ids."""
    ids = [f"m{i}" for i in range(len(X))]
    with Outputs(path) as out, StoreWriter(out, ids) as store:
        store.write(X)
        store.finish()
        out.commit()
    return ids


class TestStoreFedTraining:
    # 20 media: the Gram form at dim 150 (blocks of 64, 64 and 22), the
    # primal loop at dim 20
    @pytest.mark.parametrize("dim, form", [(150, "_gram_descent"),
                                           (20, "_subgradient_descent")],
                             ids=["gram", "primal"])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_store_trains_the_bits_of_its_array(self, tmp_path, rng, monkeypatch,
                                                dim, form, balanced):
        ids = store_of(tmp_path, rng.standard_normal((20, dim)))
        order = ids[7:] + ids[:7]  # the store's rows out of their order
        labels = [f"id{i % 3}" for i in range(len(order))]
        monkeypatch.setattr(svm, "GRAM_BLOCK", 64)
        ran, solver = [], getattr(svm, form)
        monkeypatch.setattr(svm, form, lambda *a: ran.append(form) or solver(*a))
        kwargs = dict(reg_c=0.5, epochs=30, balanced=balanced)
        with StoreReader(tmp_path, order) as store:
            streamed = train_ovr_svm(store, labels, **kwargs)
        loaded = train_ovr_svm(load_store(tmp_path, order), labels, **kwargs)
        assert ran == [form, form]
        assert streamed.identity_ids == loaded.identity_ids
        for field in ("w", "b", "rescale_a", "rescale_b"):
            assert np.array_equal(getattr(streamed, field), getattr(loaded, field))

    def test_gram_form_holds_no_copy_of_the_store(self, tmp_path, rng):
        n, dim = 12, 100000
        ids = store_of(tmp_path, rng.standard_normal((n, dim)))
        labels = [f"id{i % 4}" for i in range(n)]  # k = n / 3: W is 8 k dim bytes
        tracemalloc.start()
        try:
            with StoreReader(tmp_path, ids) as store:
                gallery = train_ovr_svm(store, labels, epochs=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gallery.w.shape == (4, dim)
        assert peak < 4 * n * dim  # the size of one float32 copy of X

    @pytest.mark.parametrize("dim", [150, 20], ids=["gram", "primal"])
    @pytest.mark.parametrize("balanced", [False, True])
    def test_streamed_gallery_has_the_bytes_of_the_trained_one(self, tmp_path, rng,
                                                               monkeypatch, dim, balanced):
        ids = store_of(tmp_path, rng.standard_normal((20, dim)))
        order = ids[5:] + ids[:5]
        labels = [f"id{i % 3}" for i in range(len(order))]
        monkeypatch.setattr(svm, "GRAM_BLOCK", 64)  # at dim 150: blocks of 64, 64 and 22
        kwargs = dict(reg_c=0.5, epochs=30, balanced=balanced)
        with StoreReader(tmp_path, order) as store:
            save_gallery(tmp_path / "streamed.bgm", fit_ovr_svm(store, labels, **kwargs))
        save_gallery(tmp_path / "whole.bgm",
                     train_ovr_svm(load_store(tmp_path, order), labels, **kwargs))
        streamed = (tmp_path / "streamed.bgm").read_bytes()
        assert streamed == (tmp_path / "whole.bgm").read_bytes()
        assert len(streamed) == 12 + 3 * (2 + 3 + 4 * dim + 12)

    def test_streamed_save_holds_no_weight_matrix(self, tmp_path, rng):
        n, dim, k = 12, 100000, 4
        ids = store_of(tmp_path, rng.standard_normal((n, dim)))
        labels = [f"id{i % k}" for i in range(n)]
        tracemalloc.start()
        try:
            with StoreReader(tmp_path, ids) as store:
                save_gallery(tmp_path / "g.bgm", fit_ovr_svm(store, labels, epochs=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * dim * 8 / 2  # half the float64 weights


class TestGalleryModelSet:
    def test_duplicate_ids_rejected(self):
        # ids must also ascend: ranking breaks ties by row order
        for ids in (["a", "a"], ["b", "a"]):
            with pytest.raises(ProtocolError):
                GalleryModelSet(ids, np.zeros((2, 2)), np.zeros(2),
                                np.ones(2), np.zeros(2))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            GalleryModelSet(["a"], np.zeros((2, 3)), np.zeros(1), np.ones(1),
                            np.zeros(1))
        with pytest.raises(ShapeError):
            GalleryModelSet(["a"], np.zeros((1, 3)), np.zeros(2), np.ones(1),
                            np.zeros(1))

    def test_score_vector_keys(self, rng):
        X, labels = blobs(rng, {"a": [2, 0], "b": [-2, 0]})
        gallery = train_ovr_svm(X, labels)
        assert gallery.identity_ids == ["a", "b"]
        assert gallery.score_vector(np.zeros(2)).shape == (2,)


def test_hinge_objective_counts_margin_violations():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    w = np.array([0.5])
    # margins are 0.5 -> hinge 0.5 each; plus regularizer 0.125
    assert hinge_objective(w, 0.0, X, y, reg_c=1.0) == pytest.approx(1.125)
