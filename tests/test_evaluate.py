import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilin import evaluate
from bilin.errors import ConfigError, ProtocolError, ShapeError
from bilin.evaluate import (
    ProbeResult,
    aggregate_summaries,
    compute_cmc,
    compute_det,
    evaluate_split,
    fnir_at_fpir,
    identify,
    rank_scores,
    score_templates,
    write_cmc_csv,
    write_det_csv,
)
from bilin.protocol import MediaItem, Split, Template
from bilin.svm import GalleryModelSet

from conftest import cmc_oracle, det_oracle, random_probe_results, score_matrix_oracle


def make_result(template_id, subject, scores):
    ranked = sorted(scores, key=lambda k: (-scores[k], k))
    return ProbeResult(template_id, subject, dict(scores), ranked)


def gallery_from_weights(weights):
    ids = sorted(weights)
    k = len(ids)
    w = np.array([weights[name] for name in ids], dtype=float)
    return GalleryModelSet(ids, w, np.zeros(k), np.ones(k), np.zeros(k))


def probe_template(tid, subject, n_media):
    media = [MediaItem(f"{tid}m{i}", "frame", f"{tid}m{i}.bfm", tid)
             for i in range(n_media)]
    return Template(tid, subject, media)


# Random open-set probe results, drawn through the conftest generator.
probe_results = st.builds(
    lambda seed, n_ids, n_probes: random_probe_results(
        np.random.default_rng(seed), n_ids, n_probes),
    st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(2, 20),
)


def random_score_matrix(rng, n_ids, n_probes):
    """(scores, subject ids, gallery ids) of a random split: one-decimal
    scores, so ties are common; probe 0 is an impostor, probe 1 mated."""
    ids = [f"g{i:02d}" for i in range(n_ids)]
    impostor = rng.random(n_probes) < 0.4
    impostor[:2] = True, False
    subjects = [f"imp{p:02d}" if impostor[p] else ids[int(rng.integers(n_ids))]
                for p in range(n_probes)]
    return np.round(rng.normal(size=(n_probes, n_ids)), 1), subjects, ids


# Random score matrices with their subject and gallery ids.
score_matrices = st.builds(
    lambda seed, n_ids, n_probes: random_score_matrix(
        np.random.default_rng(seed), n_ids, n_probes),
    st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(2, 20),
)
curve_props = settings(max_examples=200, derandomize=True, database=None,
                       deadline=None)


class TestIdentify:
    def test_single_medium_strategies_agree(self, rng):
        gallery = gallery_from_weights({"a": [1, 0], "b": [0, 1]})
        t = probe_template("p0", "a", 1)
        descs = [rng.standard_normal(2)]
        r_score = identify(t, descs, gallery, "score")
        r_feature = identify(t, descs, gallery, "feature")
        assert np.array_equal(r_score, r_feature)

    def test_two_media_score_pooling_matches_hand_enumeration(self):
        gallery = gallery_from_weights({"a": [1, 0], "b": [0, 1]})
        t = probe_template("p0", "a", 2)
        d1, d2 = np.array([0.2, 0.9]), np.array([0.8, 0.1])
        row = identify(t, [d1, d2], gallery, "score")
        # identity a: max(0.2, 0.8) = 0.8; identity b: max(0.9, 0.1) = 0.9
        assert row.tolist() == [0.8, 0.9]
        ranks = rank_scores(row[None], [t.subject_id], gallery.identity_ids)
        assert ranks.rank.tolist() == [2] and ranks.true_score.tolist() == [0.8]

    def test_feature_pooling_scores_pooled_vector(self):
        gallery = gallery_from_weights({"a": [1, 0], "b": [0, 1]})
        t = probe_template("p0", "b", 2)
        d1, d2 = np.array([0.2, 0.9]), np.array([0.8, 0.1])
        row = identify(t, [d1, d2], gallery, "feature")
        # pooled = [0.8, 0.9]
        assert row.tolist() == [0.8, 0.9]

    def test_feature_pooling_ignores_media_order_and_repeats(self, rng):
        gallery = gallery_from_weights({"a": [1, 0, 2], "b": [0, 1, -1]})
        ds = [rng.standard_normal(3) for _ in range(5)]
        base = identify(probe_template("p0", "a", 5), ds, gallery, "feature")
        assert np.array_equal(identify(probe_template("p0", "a", 5), ds[::-1], gallery,
                                       "feature"), base)
        assert np.array_equal(identify(probe_template("p0", "a", 6), ds + [ds[2]], gallery,
                                       "feature"), base)

    def test_score_pooling_absorbs_a_dominated_medium(self):
        gallery = gallery_from_weights({"a": [1, 0], "b": [0, 1]})
        d1, d2 = np.array([0.9, 0.8]), np.array([0.1, 0.2])  # d2 scores lower on both
        alone = identify(probe_template("p0", "a", 1), [d1], gallery, "score")
        for media in ([d1, d2], [d2, d1]):
            row = identify(probe_template("p0", "a", 2), media, gallery, "score")
            assert np.array_equal(row, alone)

    def test_ties_break_by_ascending_identity(self):
        gallery = gallery_from_weights({"zeta": [1, 0], "alpha": [1, 0],
                                        "mid": [1, 0]})
        t = probe_template("p0", "mid", 1)
        row = identify(t, [np.array([0.5, 0.0])], gallery, "score")
        assert gallery.identity_ids == ["alpha", "mid", "zeta"]
        # all three tie; a probe of each id ranks it at its place in id order
        ranks = rank_scores(np.tile(row, (3, 1)), ["zeta", "alpha", "mid"],
                            gallery.identity_ids)
        assert ranks.rank.tolist() == [3, 1, 2]

    def test_empty_gallery_rejected(self, rng):
        empty = GalleryModelSet([], np.zeros((0, 2)), np.zeros(0),
                                np.ones(0), np.zeros(0))
        t = probe_template("p0", "a", 1)
        with pytest.raises(ProtocolError):
            identify(t, [rng.standard_normal(2)], empty)

    def test_descriptor_count_mismatch(self, rng):
        gallery = gallery_from_weights({"a": [1, 0]})
        t = probe_template("p0", "a", 2)
        with pytest.raises(ProtocolError):
            identify(t, [rng.standard_normal(2)], gallery)

    def test_unknown_strategy(self, rng):
        gallery = gallery_from_weights({"a": [1, 0]})
        t = probe_template("p0", "a", 1)
        with pytest.raises(ValueError):
            identify(t, [rng.standard_normal(2)], gallery, "mean")


class TestCmc:
    def test_rank_counting_example(self):
        results = [
            make_result("t1", "a", {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}),
            make_result("t2", "b", {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}),
            make_result("t3", "d", {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}),
        ]
        curve = compute_cmc(results, max_rank=4)
        np.testing.assert_allclose(
            curve.recall_at_rank, [1 / 3, 2 / 3, 2 / 3, 1.0]
        )
        assert curve.mated_probe_count == 3

    def test_all_rank_one_gives_constant_curve(self):
        results = [
            make_result(f"t{i}", "a", {"a": 1.0, "b": 0.0}) for i in range(5)
        ]
        curve = compute_cmc(results, max_rank=10)
        assert np.array_equal(curve.recall_at_rank, np.ones(10))

    def test_monotone_and_matches_oracle_on_random_instances(self, rng):
        for _ in range(50):
            results = random_probe_results(rng)
            curve = compute_cmc(results, max_rank=12)
            assert np.all(np.diff(curve.recall_at_rank) >= 0)
            expected, count = cmc_oracle(results, 12)
            assert curve.mated_probe_count == count
            np.testing.assert_array_equal(curve.recall_at_rank, expected)

    @curve_props
    @given(results=probe_results, max_rank=st.integers(1, 12))
    def test_property_monotone_bounded_and_oracle(self, results, max_rank):
        recall = compute_cmc(results, max_rank=max_rank).recall_at_rank
        assert np.all(np.diff(recall) >= 0)
        assert recall.min() >= 0.0 and recall.max() <= 1.0
        np.testing.assert_array_equal(recall, cmc_oracle(results, max_rank)[0])

    def test_rank_past_the_gallery_costs_one_count(self, rng):
        results = random_probe_results(rng, n_identities=10, n_probes=20)
        worst = max(r.ranked.index(r.subject_id) + 1 for r in results
                    if r.subject_id in r.scores)
        recall = compute_cmc(results, max_rank=10**6).recall_at_rank
        assert recall.shape == (10**6,)
        np.testing.assert_array_equal(recall[:12], cmc_oracle(results, 12)[0])
        assert recall[worst - 2] < 1.0 and (recall[worst - 1:] == 1.0).all()

    def test_impostors_excluded(self):
        results = [
            make_result("t1", "a", {"a": 1.0, "b": 0.0}),
            make_result("t2", "imp", {"a": 1.0, "b": 0.0}),
        ]
        assert compute_cmc(results, max_rank=2).mated_probe_count == 1

    @pytest.mark.parametrize("max_rank", [0, evaluate.MAX_RANK + 1, 10**12])
    def test_max_rank_out_of_bounds_rejected(self, max_rank):
        results = [make_result("t1", "a", {"a": 1.0, "b": 0.0})]
        with pytest.raises(ConfigError, match="max_rank must be between 1 and"):
            compute_cmc(results, max_rank=max_rank)

    def test_no_mated_probes_rejected(self):
        results = [make_result("t1", "imp", {"a": 1.0})]
        with pytest.raises(ProtocolError):
            compute_cmc(results, max_rank=5)


class TestDet:
    def fixture_results(self):
        # impostor best scores {0.5, 1.5}; mated true scores {2.0, 0.8}
        return [
            make_result("i1", "x", {"a": 0.5, "b": 0.3}),
            make_result("i2", "y", {"a": 1.5, "b": 0.1}),
            make_result("m1", "a", {"a": 2.0, "b": 0.0}),
            make_result("m2", "b", {"a": 0.1, "b": 0.8}),
        ]

    def test_hand_enumerated_point(self):
        det = compute_det(self.fixture_results(), thresholds=[1.0])
        assert det.fpir[0] == 0.5
        assert det.fnir[0] == 0.5

    def test_boundary_thresholds(self):
        results = self.fixture_results()
        below = compute_det(results, thresholds=[-10.0])
        assert below.fpir[0] == 1.0 and below.fnir[0] == 0.0
        above = compute_det(results, thresholds=[10.0])
        assert above.fpir[0] == 0.0 and above.fnir[0] == 1.0

    def test_sentinels_on_auto_grid(self):
        det = compute_det(self.fixture_results())
        assert det.thresholds[0] == -np.inf and det.thresholds[-1] == np.inf
        assert det.fpir[0] == 1.0
        assert det.fnir[-1] == 1.0

    def test_monotonicity_and_oracle_on_random_instances(self, rng):
        for _ in range(50):
            results = random_probe_results(rng)
            det = compute_det(results)
            assert np.all(np.diff(det.fpir) <= 0)
            assert np.all(np.diff(det.fnir) >= 0)
            fpir, fnir = det_oracle(results, det.thresholds)
            np.testing.assert_array_equal(det.fpir, fpir)
            np.testing.assert_array_equal(det.fnir, fnir)

    @curve_props
    @given(results=probe_results,
           thresholds=st.one_of(st.none(), st.lists(
               st.floats(-4.0, 4.0).map(lambda t: round(t, 3)),
               min_size=1, max_size=12)))
    def test_property_fpir_non_increasing_and_oracle(self, results, thresholds):
        det = compute_det(results, thresholds=thresholds)
        assert np.all(np.diff(det.thresholds) >= 0)
        assert np.all(np.diff(det.fpir) <= 0)
        fpir, fnir = det_oracle(results, det.thresholds)
        np.testing.assert_array_equal(det.fpir, fpir)
        np.testing.assert_array_equal(det.fnir, fnir)

    def test_requires_impostors_and_mated(self):
        mated_only = [make_result("m", "a", {"a": 1.0})]
        with pytest.raises(ProtocolError):
            compute_det(mated_only)
        imp_only = [make_result("i", "zz", {"a": 1.0})]
        with pytest.raises(ProtocolError):
            compute_det(imp_only)

    def test_rank1_conditioned_variant(self):
        results = [
            make_result("i1", "x", {"a": -1.0, "b": -2.0}),
            # true score high but outranked by b
            make_result("m1", "a", {"a": 1.0, "b": 2.0}),
        ]
        literal = compute_det(results, thresholds=[0.0])
        assert literal.fnir[0] == 0.0
        conditioned = compute_det(results, thresholds=[0.0],
                                  rank1_conditioned=True)
        assert conditioned.fnir[0] == 1.0


class TestFnirAtFpir:
    def test_decile_quantile_fixture(self):
        results = [
            make_result(f"i{k}", "x", {"a": float(k)}) for k in range(10)
        ] + [
            make_result("m1", "a", {"a": 8.5}),
            make_result("m2", "a", {"a": 0.5}),
        ]
        det = compute_det(results)
        # smallest threshold with one impostor at or above is 8.5 (just
        # above the runner-up impostor score 8); mated 0.5 misses there
        assert fnir_at_fpir(det, 0.1) == 0.5
        # at FPIR 0.5 the smallest threshold is 5; only mated 0.5 misses
        assert fnir_at_fpir(det, 0.5) == 0.5

    def test_target_one_accepts_everything(self):
        results = [
            make_result("i1", "x", {"a": 0.0}),
            make_result("m1", "a", {"a": 1.0}),
        ]
        det = compute_det(results)
        assert fnir_at_fpir(det, 1.0) == 0.0

    def test_interpolates_between_steps(self):
        # 2 impostors -> achievable FPIR steps {1, 0.5, 0}
        results = [
            make_result("i1", "x", {"a": 1.0}),
            make_result("i2", "y", {"a": 2.0}),
            make_result("m1", "a", {"a": 1.5}),
            make_result("m2", "a", {"a": 2.5}),
        ]
        det = compute_det(results)
        # threshold 1.5 already reaches FPIR 0.5, where nothing misses yet
        assert fnir_at_fpir(det, 0.5) == 0.0
        # 0.25 falls between the FPIR steps 0.5 (thr 2.0, fnir 0.5) and
        # 0.0 (thr 2.5, fnir 0.5): interpolation stays at 0.5
        assert fnir_at_fpir(det, 0.25) == pytest.approx(0.5)
        # between FPIR 1.0 (fnir 0) and 0.5 (fnir 0): still 0
        assert fnir_at_fpir(det, 0.75) == pytest.approx(0.0)

    def test_interpolation_mixes_bracketing_fnir(self):
        results = [
            make_result("i1", "x", {"a": 1.0}),
            make_result("i2", "y", {"a": 2.0}),
            make_result("m1", "a", {"a": 2.0}),
            make_result("m2", "a", {"a": 3.0}),
        ]
        det = compute_det(results)
        # bracketing points: threshold 2 (FPIR 0.5, FNIR 0) and
        # threshold 3 (FPIR 0, FNIR 0.5); halfway target mixes them
        assert fnir_at_fpir(det, 0.25) == pytest.approx(0.25)

    def test_unattainable_target_on_custom_grid_rejected(self):
        results = [
            make_result("i1", "x", {"a": 0.0}),
            make_result("m1", "a", {"a": 1.0}),
        ]
        det = compute_det(results, thresholds=[-10.0])
        with pytest.raises(ProtocolError, match="sentinel"):
            fnir_at_fpir(det, 0.5)

    def test_rejects_out_of_range_target(self):
        results = [
            make_result("i1", "x", {"a": 0.0}),
            make_result("m1", "a", {"a": 1.0}),
        ]
        det = compute_det(results)
        with pytest.raises(ValueError):
            fnir_at_fpir(det, 1.5)


class TestUniformAffineRescale:
    def test_ranked_order_and_cmc_unchanged(self, rng):
        results = random_probe_results(rng, n_identities=5, n_probes=12)
        transformed = [
            make_result(r.template_id, r.subject_id,
                        {k: 3.0 * v + 0.7 for k, v in r.scores.items()})
            for r in results
        ]
        for before, after in zip(results, transformed):
            assert before.ranked == after.ranked
        c1 = compute_cmc(results, max_rank=5)
        c2 = compute_cmc(transformed, max_rank=5)
        np.testing.assert_array_equal(c1.recall_at_rank, c2.recall_at_rank)


class TestRankScores:
    @curve_props
    @given(drawn=score_matrices, max_rank=st.integers(1, 12))
    def test_property_matrix_and_result_list_agree(self, drawn, max_rank):
        scores, subjects, ids = drawn
        ranks = rank_scores(scores, subjects, ids)
        results = [make_result(f"t{p:03d}", subject, dict(zip(ids, row.tolist())))
                   for p, (subject, row) in enumerate(zip(subjects, scores))]
        mated = [r for r in results if r.subject_id in r.scores]
        assert ranks.rank.tolist() == [r.ranked.index(r.subject_id) + 1 for r in mated]

        by_matrix = compute_cmc(ranks, max_rank=max_rank)
        by_list = compute_cmc(results, max_rank=max_rank)
        expected, count = cmc_oracle(results, max_rank)
        assert by_matrix.mated_probe_count == by_list.mated_probe_count == count
        np.testing.assert_array_equal(by_matrix.recall_at_rank, by_list.recall_at_rank)
        np.testing.assert_array_equal(by_matrix.recall_at_rank, expected)

        for conditioned in (False, True):
            by_matrix = compute_det(ranks, rank1_conditioned=conditioned)
            by_list = compute_det(results, rank1_conditioned=conditioned)
            for field in ("thresholds", "fpir", "fnir"):
                np.testing.assert_array_equal(getattr(by_matrix, field),
                                              getattr(by_list, field))
            fpir, fnir = det_oracle(results, by_matrix.thresholds)
            if conditioned:  # an outranked true identity misses at every threshold
                fnir = [sum(r.scores[r.subject_id] < t or r.ranked[0] != r.subject_id
                            for r in mated) / len(mated) for t in by_matrix.thresholds]
            np.testing.assert_array_equal(by_matrix.fpir, fpir)
            np.testing.assert_array_equal(by_matrix.fnir, fnir)


class TestEvaluateSplit:
    def build(self, rng, n_media=1):
        gallery = gallery_from_weights({"a": [1, 0], "b": [0, 1]})
        split = Split(split_index=1)
        descriptors = {}
        for i, subject in enumerate(["a", "b", "zz", "a"]):
            t = probe_template(f"p{i}", subject, n_media)
            split.probe.append(t)
            for m in t.media:
                descriptors[m.media_id] = rng.standard_normal(2)
        return split, gallery, descriptors

    def test_summary_keys_and_determinism(self, rng):
        split, gallery, descriptors = self.build(rng)
        _, _, _, s1 = evaluate_split(split, gallery, descriptors)
        _, _, _, s2 = evaluate_split(split, gallery, descriptors)
        assert s1 == s2
        assert set(s1) == {"rank1", "rank5", "fnir_at_fpir_0.1",
                           "fnir_at_fpir_0.01"}

    def test_results_ordered_by_template_id(self, rng):
        split, gallery, descriptors = self.build(rng, n_media=2)
        in_order, _, _, _ = evaluate_split(split, gallery, descriptors)
        split.probe = split.probe[::-1]
        scores, _, _, _ = evaluate_split(split, gallery, descriptors)
        assert np.array_equal(scores, in_order)
        expected = [identify(t, [descriptors[m.media_id] for m in t.media], gallery)
                    for t in sorted(split.probe, key=lambda t: t.template_id)]
        assert np.array_equal(scores, expected)

    def test_missing_probe_medium_named(self, rng):
        split, gallery, descriptors = self.build(rng, n_media=2)
        del descriptors["p2m1"]
        with pytest.raises(ProtocolError, match=r"'p2'.*'p2m1'"):
            evaluate_split(split, gallery, descriptors)

    def test_singleton_templates_pool_identically(self, rng):
        split, gallery, descriptors = self.build(rng, n_media=1)
        out_score = evaluate_split(split, gallery, descriptors, "score")
        out_feature = evaluate_split(split, gallery, descriptors, "feature")
        assert out_score[3] == out_feature[3]
        assert np.array_equal(out_score[0], out_feature[0])


class TestBlockScoring:
    """score_templates reads the media of whole templates a block at a time."""

    SIZES = [2, 1, 3, 4, 1, 1, 2]  # media per template; 14 in all
    BLOCKS = {1: [(0, 2), (2, 3), (3, 6), (6, 10), (10, 11), (11, 12), (12, 14)],
              3: [(0, 3), (3, 6), (6, 10), (10, 12), (12, 14)],
              14: [(0, 14)]}

    def build(self, rng, dim=6):
        ids = ["a", "b", "c"]
        gallery = GalleryModelSet(ids, rng.standard_normal((3, dim)).astype(np.float32),
                                  rng.standard_normal(3), rng.random(3) + 0.5,
                                  rng.standard_normal(3))
        templates = [probe_template(f"p{i}", ["a", "b", "zz"][i % 3], n)
                     for i, n in enumerate(self.SIZES)]
        descriptors = {m.media_id: rng.standard_normal(dim).astype(np.float32)
                       for t in templates for m in t.media}
        return templates, gallery, descriptors

    @pytest.mark.parametrize("strategy", ["score", "feature"])
    @pytest.mark.parametrize("rows", sorted(BLOCKS))
    def test_blocks_hold_whole_templates_and_keep_the_bits(self, rng, monkeypatch,
                                                           strategy, rows):
        templates, gallery, descriptors = self.build(rng)
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", rows * 4 * gallery.descriptor_dim)
        stack = np.stack([descriptors[m.media_id] for t in templates for m in t.media])
        calls = []

        def read(lo, hi):
            calls.append((lo, hi))
            return stack[lo:hi]

        scores = score_templates(templates, gallery, read, strategy)
        # a block fills the budget with whole templates; a larger one goes alone
        assert calls == self.BLOCKS[rows]
        expected = score_matrix_oracle(templates, gallery, descriptors, strategy)
        assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("strategy", ["score", "feature"])
    @pytest.mark.parametrize("rows", sorted(BLOCKS))
    def test_evaluate_split_keeps_the_bits(self, rng, monkeypatch, strategy, rows):
        templates, gallery, descriptors = self.build(rng)
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", rows * 4 * gallery.descriptor_dim)
        split = Split(split_index=1, probe=templates[::-1])
        scores = evaluate_split(split, gallery, descriptors, strategy)[0]
        expected = score_matrix_oracle(templates, gallery, descriptors, strategy)
        assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("rows", sorted(BLOCKS))
    def test_score_pooling_scores_each_block_once(self, rng, monkeypatch, rows):
        templates, gallery, descriptors = self.build(rng)
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", rows * 4 * gallery.descriptor_dim)
        stack = np.stack([descriptors[m.media_id] for t in templates for m in t.media])
        blocks, scored = [], []

        def read(lo, hi):
            blocks.append(stack[lo:hi])
            return blocks[-1]

        score_vector = gallery.score_vector

        def counted(descriptors):
            scored.append(descriptors)
            return score_vector(descriptors)

        monkeypatch.setattr(gallery, "score_vector", counted)
        score_templates(templates, gallery, read, "score")
        assert len(blocks) == len(self.BLOCKS[rows]) == len(scored)
        assert all(block is arg for block, arg in zip(blocks, scored))

    @pytest.mark.parametrize("strategy", ["score", "feature"])
    @pytest.mark.parametrize("empty", [0, 3, len(SIZES) - 1])
    def test_template_without_media_is_refused_before_a_read(self, rng, monkeypatch,
                                                             strategy, empty):
        templates, gallery, _ = self.build(rng)
        # one block would hold every template
        monkeypatch.setattr(evaluate, "EVAL_BLOCK_BYTES", 14 * 4 * gallery.descriptor_dim)
        templates[empty].media = []
        reads = []
        with pytest.raises(ProtocolError, match="empty"):
            score_templates(templates, gallery, lambda lo, hi: reads.append((lo, hi)),
                            strategy)
        assert reads == []

    @pytest.mark.parametrize("strategy", ["score", "feature"])
    def test_template_without_media_is_a_protocol_error(self, rng, strategy):
        templates, gallery, descriptors = self.build(rng)
        templates[3].media = []
        with pytest.raises(ProtocolError, match="empty"):
            evaluate_split(Split(split_index=1, probe=templates), gallery, descriptors,
                           strategy)

    @pytest.mark.parametrize("strategy", ["score", "feature"])
    def test_descriptors_of_two_dims_are_a_shape_error(self, rng, strategy):
        templates, gallery, descriptors = self.build(rng)
        descriptors["p3m1"] = descriptors["p3m1"][:4]
        with pytest.raises(ShapeError):
            evaluate_split(Split(split_index=1, probe=templates), gallery, descriptors,
                           strategy)


class TestAggregation:
    def test_mean_and_population_std(self):
        per_split = {
            1: {"rank1": 0.8, "rank5": 1.0, "fnir_at_fpir_0.1": 0.2,
                "fnir_at_fpir_0.01": 0.4},
            2: {"rank1": 0.6, "rank5": 0.8, "fnir_at_fpir_0.1": 0.4,
                "fnir_at_fpir_0.01": 0.6},
        }
        agg = aggregate_summaries(per_split)
        assert agg["mean"]["rank1"] == pytest.approx(0.7)
        assert agg["std"]["rank1"] == pytest.approx(0.1)
        assert list(agg["splits"]) == ["1", "2"]

    def test_single_split_has_zero_std(self):
        agg = aggregate_summaries({1: {"rank1": 0.5, "rank5": 0.6,
                                       "fnir_at_fpir_0.1": 0.1,
                                       "fnir_at_fpir_0.01": 0.2}})
        assert agg["std"]["rank1"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_summaries({})


class TestCsvWriters:
    def test_cmc_csv_round_trips(self, tmp_path, rng):
        results = random_probe_results(rng)
        curve = compute_cmc(results, max_rank=7)
        path = tmp_path / "cmc.csv"
        write_cmc_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rank,recall"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_array_equal(values, curve.recall_at_rank)

    def test_det_csv_round_trips_with_sentinels(self, tmp_path, rng):
        results = random_probe_results(rng)
        det = compute_det(results)
        path = tmp_path / "det.csv"
        write_det_csv(det, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpir,fnir"
        first = lines[1].split(",")
        assert float(first[0]) == -np.inf
        assert float(first[1]) == 1.0
