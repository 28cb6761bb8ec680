"""Ranking, recall, and contrastive loss tests."""

import math
from unittest import mock

import numpy as np
import pytest
import reference_ops as ref
from hypothesis import given, settings, strategies as st

from cmntm import autodiff as ad
from cmntm import retrieval
from cmntm.autodiff import Tape, Tensor, gradient_check
from cmntm.errors import DegenerateInputError, DomainError, ShapeError
from cmntm.retrieval import (
    CandidateDB,
    batch_loss,
    rank,
    rank_of,
    recall_at_k,
    score_gap,
    similarity_scores,
    top_k,
    transaction_loss,
    unsettled,
)


def _random_db(rng, count=100, dim=16):
    feats = rng.normal(size=(count, dim))
    return CandidateDB(feats)


# ---------------------------------------------------------------- CandidateDB

class TestCandidateDB:
    def test_basic_accessors(self, rng):
        db = _random_db(rng, count=10, dim=4)
        assert len(db) == 10
        assert db.dim == 4
        assert db.index_of(7) == 7
        assert db.ids.dtype == np.int64 and db.ids.tolist() == list(range(10))

    def test_rejects_non_2d_features(self):
        with pytest.raises(ShapeError):
            CandidateDB(np.ones(2))

    def test_rejects_single_candidate(self):
        with pytest.raises(DegenerateInputError):
            CandidateDB(np.ones((1, 3)))

    def test_rejects_zero_norm_feature(self):
        feats = np.eye(3)
        feats[1] = 0.0
        with pytest.raises(DegenerateInputError):
            CandidateDB(feats)

    @pytest.mark.parametrize("unknown", [-1, 5, 99])
    def test_unknown_id_raises(self, rng, unknown):
        # an id is its row: -1 must not wrap round to the last one
        db = _random_db(rng, count=5, dim=3)
        with pytest.raises(KeyError, match=rf"unknown candidate id {unknown}\b"):
            db.index_of(unknown)

    def test_row_norms_are_the_feature_row_norms(self, rng):
        db = _random_db(rng, count=12, dim=5)
        assert db.row_norms.tobytes() == np.linalg.norm(db.features, axis=1).tobytes()

    def test_features_are_read_only(self, rng):
        db = _random_db(rng, count=6, dim=3)
        with pytest.raises(ValueError):
            db.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            db.ids[0] = 5

    def test_callers_array_stays_writable(self, rng):
        feats = rng.normal(size=(6, 3)).astype(np.float32)
        db = CandidateDB(feats)
        assert feats.flags.writeable
        assert np.shares_memory(db.features, feats)  # a view, not a copy


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 60), dim=st.integers(1, 40),
       dtype=st.sampled_from([np.float32, np.float64]), block_rows=st.integers(1, 70),
       scale=st.sampled_from([1e-3, 1.0, 1e15]))
@settings(max_examples=80, deadline=None)
def test_row_norms_computed_by_blocks_equal_one_norm(seed, count, dim, dtype, block_rows,
                                                     scale):
    # blocks of block_rows rows, the last one partial unless it divides count
    feats = (np.random.default_rng(seed).normal(size=(count, dim)) * scale).astype(dtype)
    block_bytes = block_rows * feats.itemsize * dim
    with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", block_bytes):
        db = CandidateDB(feats)
    expected = np.linalg.norm(feats, axis=1)
    assert db.row_norms.dtype == expected.dtype
    assert db.row_norms.tobytes() == expected.tobytes()


# ----------------------------------------------------------------- similarity

class TestSimilarityScores:
    def test_hand_computed_cosines(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        db = CandidateDB(feats)
        scores = similarity_scores(np.array([1.0, 0.0]), db)
        np.testing.assert_allclose(scores, [1.0, 0.0, 1.0 / math.sqrt(2.0)], atol=1e-12)

    def test_query_scale_invariance(self, rng):
        db = _random_db(rng, count=20, dim=8)
        q = rng.normal(size=8)
        np.testing.assert_allclose(
            similarity_scores(q, db), similarity_scores(7.5 * q, db), atol=1e-12)

    def test_candidate_scale_preserves_ranking(self, rng):
        # cosine ignores per-row magnitude, so rescaling candidates cannot
        # reorder them
        feats = rng.normal(size=(30, 8))
        scales = rng.uniform(0.1, 10.0, size=(30, 1))
        a = CandidateDB(feats)
        b = CandidateDB(feats * scales)
        q = rng.normal(size=8)
        np.testing.assert_array_equal(
            rank(similarity_scores(q, a), a.ids).ids, rank(similarity_scores(q, b), b.ids).ids)

    def test_scores_bounded(self, rng):
        db = _random_db(rng, count=50, dim=6)
        for _ in range(10):
            s = similarity_scores(rng.normal(size=6) * 100.0, db)
            assert np.all(s <= 1.0) and np.all(s >= -1.0)

    def test_wrong_query_dim_raises(self, rng):
        db = _random_db(rng, count=5, dim=4)
        with pytest.raises(ShapeError):
            similarity_scores(np.ones(3), db)

    def test_zero_query_raises(self, rng):
        db = _random_db(rng, count=5, dim=4)
        with pytest.raises(DegenerateInputError):
            similarity_scores(np.zeros(4), db)

    def test_block_checks_its_width_and_marks_unscorable_rows(self, rng):
        db = _random_db(rng, count=5, dim=4)
        for bad in (np.ones((2, 2, 4)), np.ones((2, 3))):
            with pytest.raises(ShapeError):
                similarity_scores(bad, db)
        queries = rng.normal(size=(4, 4))
        queries[1] = 0.0
        queries[2, 0] = np.nan
        scores = similarity_scores(queries, db)
        assert np.isnan(scores[1:3]).all()
        for row in (0, 3):
            np.testing.assert_allclose(scores[row], similarity_scores(queries[row], db),
                                       rtol=0, atol=1e-12)
        # norms whose product passes a quarter of the largest float64
        huge = CandidateDB(np.diag([1e154, 1.0, 1.0, 1.0])[:3])
        scores = similarity_scores(np.diag([1e154, 1.0, 1.0, 1.0])[:2], huge)
        assert np.isnan(scores[0]).all() and scores[1].tolist() == [0.0, 1.0, 0.0]

    def test_non_finite_query_raises(self, rng):
        db = _random_db(rng, count=5, dim=4)
        for bad in (np.inf, np.nan):
            with pytest.raises(DegenerateInputError, match="non-finite query"):
                similarity_scores(np.array([1.0, bad, 0.0, 0.0]), db)

    def test_unsettled_marks_rows_that_rounding_could_move_across_a_k(self):
        eps = np.finfo(np.float64).eps
        scores = np.array([[0.9, 0.5, 0.1, 0.0],        # column 1 is second by far
                           [0.5, 0.5 + eps, 0.1, 0.0],  # first or second: K = 1 unsettled
                           [0.9, 0.5, np.nan, 0.0]])    # a non-finite score elsewhere
        lo, exact = unsettled(scores, np.array([1, 0, 1]), 4, (1, 2))
        assert lo[:2].tolist() == [1, 0]
        assert exact.tolist() == [False, True, True]
        # a float32 block takes float32's gap: at the argmax, a rival half a
        # gap below it is unsettled and one 1.5 gaps below is not
        gap = score_gap(np.float32, 4)
        block = np.array([[0.5, 0.5 - gap / 2, 0.0],
                          [0.5, 0.5 - 1.5 * gap, 0.0]], np.float32)
        lo, exact = unsettled(block, np.array([0, 0]), 4, (1,))
        assert lo.tolist() == [0, 0] and exact.tolist() == [True, False]


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 300), dim=st.integers(1, 48),
       dtype=st.sampled_from([np.float32, np.float64]), scale=st.floats(1e-3, 1e3))
@settings(max_examples=80, deadline=None)
def test_similarity_scores_with_cached_norms_is_bit_equal(seed, count, dim, dtype, scale):
    # the expression that recomputed every row norm on each call
    rng = np.random.default_rng(seed)
    feats = (rng.normal(size=(count, dim)) * scale).astype(dtype)
    feats[np.linalg.norm(feats, axis=1) <= 1e-6, 0] = 1.0
    db = CandidateDB(feats)
    query = rng.normal(size=dim).astype(dtype)
    qn = np.linalg.norm(query)
    old = np.clip(feats @ query / np.maximum(qn * np.linalg.norm(feats, axis=1), ad.COSINE_EPS),
                  -1.0, 1.0)
    got = similarity_scores(query, db)
    assert got.dtype == old.dtype
    assert got.tobytes() == old.tobytes()


# ----------------------------------------------------------------------- rank

class TestRank:
    def test_descending_scores(self):
        r = rank(np.array([0.1, 0.9, 0.5]), np.arange(3))
        np.testing.assert_array_equal(r.ids, [1, 2, 0])
        np.testing.assert_array_equal(r.scores, [0.9, 0.5, 0.1])

    def test_ties_break_by_ascending_id(self):
        r = rank(np.array([1.0, 1.0, 0.5]), ids=np.array([7, 3, 9]))
        np.testing.assert_array_equal(r.ids, [3, 7, 9])

    def test_all_equal_scores_sort_ids_ascending(self):
        r = rank(np.zeros(4), ids=np.array([30, 10, 40, 20]))
        np.testing.assert_array_equal(r.ids, [10, 20, 30, 40])

    def test_non_finite_scores_raise(self):
        with pytest.raises(DegenerateInputError):
            rank(np.array([0.5, np.nan]), np.arange(2))
        with pytest.raises(DegenerateInputError):
            rank(np.array([np.inf, 0.0]), np.arange(2))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rank(np.zeros((2, 2)), np.arange(2))
        with pytest.raises(ShapeError):
            rank(np.zeros(3), ids=np.arange(2))


@given(scores=st.lists(st.sampled_from([-1.0, -1 / 3, 0.0, 1 / 3, 1.0]), min_size=2,
                       max_size=300),
       k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float32, np.float64]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_top_k_and_rank_of_match_rank_under_ties(scores, k, seed, dtype, bad):
    # five score values force ties; top_k and rank_of break them by row, as rank
    # does by id when the ids are the rows
    rng = np.random.default_rng(seed)
    scores = np.asarray(scores, dtype=dtype)
    rows = np.arange(len(scores))
    k = min(k, len(scores))
    order = rank(scores, rows).ids
    assert top_k(scores, k).tolist() == order[:k].tolist()
    assert [rank_of(scores, row) for row in rows] == np.argsort(order).tolist()
    scores[rng.integers(len(scores))] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        top_k(scores, k)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        rank_of(scores, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rank_without_ties_matches_lexsort(dtype):
    # 10k distinct scores under shuffled ids: the descending order is unique
    rng = np.random.default_rng(4)
    scores = rng.permutation(np.linspace(-1.0, 1.0, 10000)).astype(dtype)
    assert len(np.unique(scores)) == len(scores)
    ids = rng.permutation(10000)
    order = np.lexsort((ids, -scores))
    got = rank(scores, ids)
    np.testing.assert_array_equal(got.ids, ids[order])
    np.testing.assert_array_equal(got.scores, scores[order])


@given(scores=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]), min_size=1,
                       max_size=300),
       seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=100, deadline=None)
def test_rank_under_ties_matches_lexsort(scores, seed, dtype):
    # -0.0 and 0.0 compare equal, so they tie and keep their own bits
    scores = np.asarray(scores, dtype=dtype)
    ids = np.random.default_rng(seed).choice(10 * len(scores), size=len(scores), replace=False)
    order = np.lexsort((ids, -scores))
    got = rank(scores, ids)
    np.testing.assert_array_equal(got.ids, ids[order])
    assert got.scores.tobytes() == scores[order].tobytes()


@pytest.mark.parametrize("k", [0, 3])
def test_top_k_rejects_k_outside_the_scores(k):
    with pytest.raises(ValueError, match=f"top_k: k must be in \\[1, 2\\], got {k}"):
        top_k(np.array([0.5, 0.25]), k)


# ---------------------------------------------------------------- recall_at_k

class TestRecallAtK:
    def test_matches_naive_oracle(self, rng):
        # independent oracle: for each query, count candidates strictly better
        # plus equal-scored ones with a smaller id
        for _ in range(5):
            db = _random_db(rng, count=50, dim=8)
            queries = rng.normal(size=(20, 8))
            targets = rng.integers(0, 50, size=20)
            rankings = [rank(similarity_scores(q, db), db.ids) for q in queries]
            for k in (1, 5, 8, 10):
                hits = 0
                for q, t in zip(queries, targets):
                    s = similarity_scores(q, db)
                    st = s[db.index_of(t)]
                    better = np.sum(s > st) + np.sum((s == st) & (db.ids < t))
                    hits += int(better < k)
                assert recall_at_k(rankings, targets, k) == hits / 20

    def test_full_k_recalls_everything(self, rng):
        db = _random_db(rng, count=30, dim=5)
        rankings = [rank(similarity_scores(rng.normal(size=5), db), db.ids)
                    for _ in range(10)]
        targets = rng.integers(0, 30, size=10)
        assert recall_at_k(rankings, targets, k=30) == 1.0

    def test_monotone_in_k(self, rng):
        db = _random_db(rng, count=40, dim=6)
        rankings = [rank(similarity_scores(rng.normal(size=6), db), db.ids)
                    for _ in range(50)]
        targets = rng.integers(0, 40, size=50)
        vals = [recall_at_k(rankings, targets, k) for k in range(1, 41)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_random_scores_hit_chance_rate(self):
        # top-5 of 100 under random scoring should land on 5% within
        # Monte Carlo noise
        rng = np.random.default_rng(12345)
        trials = 10_000
        ids = np.arange(100)
        hits = 0
        for _ in range(trials):
            r = rank(rng.normal(size=100), ids)
            if int(rng.integers(0, 100)) in r.ids[:5]:
                hits += 1
        assert abs(hits / trials - 0.05) < 0.01

    def test_k_below_one_raises(self, rng):
        db = _random_db(rng, count=5, dim=3)
        rankings = [rank(similarity_scores(rng.normal(size=3), db), db.ids)]
        with pytest.raises(ValueError):
            recall_at_k(rankings, [0], k=0)

    def test_count_mismatch_raises(self, rng):
        db = _random_db(rng, count=5, dim=3)
        rankings = [rank(similarity_scores(rng.normal(size=3), db), db.ids)]
        with pytest.raises(ShapeError):
            recall_at_k(rankings, [0, 1], k=1)

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            recall_at_k([], [], k=1)

    def test_unknown_target_raises(self, rng):
        db = _random_db(rng, count=5, dim=3)
        rankings = [rank(similarity_scores(rng.normal(size=3), db), db.ids)]
        with pytest.raises(KeyError):
            recall_at_k(rankings, [17], k=1)


# ----------------------------------------------------------------- batch_loss

def _loss_oracle(preds: np.ndarray, tars: np.ndarray) -> float:
    """Double loop over explicit cosine logits."""
    b = preds.shape[0]
    sims = np.empty((b, b))
    for i in range(b):
        for j in range(b):
            sims[i, j] = (preds[i] @ tars[j]) / (
                np.linalg.norm(preds[i]) * np.linalg.norm(tars[j]))
    total = 0.0
    for i in range(b):
        total += np.log(np.sum(np.exp(sims[i]))) - sims[i, i]
    return total / b


class TestBatchLoss:
    def test_single_row_scores_zero(self):
        loss = batch_loss(Tensor(np.ones((1, 4))), Tensor(np.full((1, 4), 2.0)))
        assert loss.data.shape == ()
        assert float(loss.data) == 0.0

    def test_orthonormal_pair_frozen_value(self):
        # sims = I, so each row pays log(e + 1) - 1
        expected = math.log(math.e + 1.0) - 1.0
        loss = batch_loss(Tensor(np.eye(2)), Tensor(np.eye(2)))
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3132616875182228, abs=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(5, 12)).astype(np.float32)
        tars = rng.normal(size=(5, 12)).astype(np.float32)
        loss = batch_loss(Tensor(preds), Tensor(tars))
        assert abs(float(loss.data) - _loss_oracle(preds, tars)) <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_never_negative(self, seed):
        # log sum exp over a row is at least the diagonal term
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 9))
        loss = batch_loss(Tensor(rng.normal(size=(b, 6))), Tensor(rng.normal(size=(b, 6))))
        assert float(loss.data) >= 0.0

    def test_joint_permutation_equivariance(self, rng):
        preds = rng.normal(size=(6, 8))
        tars = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        a = float(batch_loss(Tensor(preds), Tensor(tars)).data)
        b = float(batch_loss(Tensor(preds[perm]), Tensor(tars[perm])).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_aligned_beats_shuffled(self, rng):
        tars = rng.normal(size=(8, 16))
        perm = np.roll(np.arange(8), 1)
        good = float(batch_loss(Tensor(tars.copy()), Tensor(tars)).data)
        bad = float(batch_loss(Tensor(tars[perm]), Tensor(tars)).data)
        assert good < bad

    def test_gradients_flow_to_predictions(self, rng):
        preds = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        tars = Tensor(rng.normal(size=(4, 5)))
        with Tape() as tape:
            loss = batch_loss(preds, tars)
        tape.backward(loss)
        assert preds.grad is not None
        assert np.all(np.isfinite(preds.grad))
        assert np.any(preds.grad != 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        preds = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        tars = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        err = gradient_check(lambda: batch_loss(preds, tars), [preds, tars])
        assert err <= 1e-5

    @pytest.mark.parametrize("loss_fn", [batch_loss, ref.batch_loss_chain])
    def test_zero_norm_rows_raise(self, loss_fn):
        preds = np.ones((3, 4))
        bad = preds.copy()
        bad[1] = 0.0
        with pytest.raises(DegenerateInputError, match="^batch_loss: zero-norm row$"):
            loss_fn(Tensor(bad), Tensor(preds))
        with pytest.raises(DegenerateInputError, match="^batch_loss: zero-norm row$"):
            loss_fn(Tensor(preds), Tensor(bad))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            batch_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            batch_loss(Tensor(np.ones(3)), Tensor(np.ones(3)))


def _clamped_batch_loss(predictions, targets):
    # the loss as it was built with its cosine denominators floored by clamp_min
    b = predictions.data.shape[0]
    pn = ref.div(predictions, ref.clamp_min(ref.l2norm(predictions, axis=1, keepdims=True), ad.COSINE_EPS))
    tn = ref.div(targets, ref.clamp_min(ref.l2norm(targets, axis=1, keepdims=True), ad.COSINE_EPS))
    sims = ad.matmul(pn, ref.transpose(tn))
    log_denom = ref.log(ref.reduce_sum(ref.exp(sims), axis=1))
    diag = ref.reduce_sum(ad.mul(sims, Tensor(np.eye(b, dtype=predictions.data.dtype))), axis=1)
    return ref.reduce_mean(ref.sub(log_denom, diag))


@given(seed=st.integers(0, 2**32 - 1), b=st.integers(2, 8), dim=st.integers(1, 16),
       dtype=st.sampled_from([np.float32, np.float64]), scale=st.floats(1e-3, 1e3),
       tiny=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_batch_loss_equals_the_clamped_chain(seed, b, dim, dtype, scale, tiny):
    rng = np.random.default_rng(seed)
    arrays = [(rng.normal(size=(b, dim)) * scale).astype(dtype) for _ in range(2)]
    for arr in arrays:
        # rows whose norm sits just above the guard's COSINE_EPS
        for i in rng.choice(b, size=min(tiny, b), replace=False):
            arr[i] = (arr[i] / np.linalg.norm(arr[i]) * 2e-8).astype(dtype)
    results = []
    for loss_fn in (batch_loss, _clamped_batch_loss):
        preds = Tensor(arrays[0].copy(), requires_grad=True)
        tars = Tensor(arrays[1].copy(), requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(preds, tars)
        tape.backward(loss)
        results.append((loss.data, preds.grad, tars.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _loss_and_grads(loss_fn, preds_array, tars_array, tars_grad, shared):
    preds = Tensor(preds_array.copy(), requires_grad=True)
    tars = preds if shared else Tensor(tars_array.copy(), requires_grad=tars_grad)
    with Tape() as tape:
        # a use of the predictions recorded after the loss, so that the loss's terms add
        # onto a gradient the sweep already holds
        loss = ad.add(loss_fn(preds, tars), ref.reduce_sum(ad.mul(preds, 0.5)))
    tape.backward(loss)
    return loss.data, preds.grad, tars.grad, len(tape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tars_grad,shared", [(False, False), (True, False), (True, True)],
                         ids=["targets-no-grad", "targets-grad", "one-tensor"])
@pytest.mark.parametrize("b,dim", [(1, 5), (2, 1), (7, 16), (32, 32)])
def test_batch_loss_is_its_chain_bit_for_bit(dtype, tars_grad, shared, b, dim):
    rng = np.random.default_rng(b * dim)
    for scale in (1e-3, 1.0, 1e3):
        preds, tars = ((rng.normal(size=(b, dim)) * scale).astype(dtype) for _ in range(2))
        fused = _loss_and_grads(batch_loss, preds, tars, tars_grad, shared)
        chain = _loss_and_grads(ref.batch_loss_chain, preds, tars, tars_grad, shared)
        for got, want in zip(fused[:3], chain[:3]):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and np.array_equal(got, want)
        # add, mul and reduce_sum, plus the fused op's one node (none for a batch of one)
        # or the chain's nodes (only its norms for a batch of one)
        chain_nodes = (13 if b > 1 else 2) if tars_grad else (10 if b > 1 else 1)
        assert (fused[3], chain[3]) == (3 + (b > 1), 3 + chain_nodes)


def test_batch_loss_rejects_non_finite_logits():
    preds = np.ones((3, 4), dtype=np.float32)
    preds[2, 0] = np.nan
    with pytest.raises(DomainError, match="^batch_loss: non-finite logits$"):
        batch_loss(Tensor(preds, requires_grad=True), Tensor(np.ones((3, 4))))


# ----------------------------------------------------------- transaction_loss

class TestTransactionLoss:
    def test_averages_per_turn_losses(self, rng):
        turns = [(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6))))
                 for _ in range(3)]
        expected = np.mean([float(batch_loss(p, t).data) for p, t in turns])
        got = transaction_loss([p for p, _ in turns], [t for _, t in turns])
        assert float(got.data) == pytest.approx(expected, abs=1e-12)

    def test_single_turn_is_batch_loss(self, rng):
        p = Tensor(rng.normal(size=(3, 4)))
        t = Tensor(rng.normal(size=(3, 4)))
        assert float(transaction_loss([p], [t]).data) == pytest.approx(
            float(batch_loss(p, t).data), abs=1e-12)

    def test_turn_count_mismatch_raises(self, rng):
        p = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ShapeError):
            transaction_loss([p, p], [p])

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            transaction_loss([], [])
