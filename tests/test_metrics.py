import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tagcomplete.core import TaggingMatrix, ValidationError
from tagcomplete.metrics import EvalSplit, evaluate, rank_predictions

from oracles import (
    average_precision_by_hand,
    average_recall_by_hand,
    coverage_by_hand,
    rank_by_full_sort,
    rank_by_image_loop,
    split_fault_by_image_loop,
)

# ties, signed zeros and every non-finite value a score can take
SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]) | st.floats(
    -2.0, 2.0, width=16
)


def make_split(observed_dense, deleted, test_ids=None):
    observed = TaggingMatrix.from_dense(np.asarray(observed_dense, dtype=float))
    if test_ids is None:
        test_ids = tuple(range(observed.n_images))
    return EvalSplit(
        observed=observed,
        deleted=tuple(frozenset(d) for d in deleted),
        test_image_ids=tuple(test_ids),
    )


class TestEvalSplit:
    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            make_split([[1, 0, 1]], [{0, 1}])

    def test_rejects_empty_deleted(self):
        with pytest.raises(ValidationError):
            make_split([[1, 0, 0]], [set()])

    def test_rejects_image_without_observed_tags(self):
        with pytest.raises(ValidationError):
            make_split([[0, 0, 0]], [{1}])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_split([[1, 0, 0], [0, 1, 0]], [{1}], test_ids=(0, 1))

    def test_rejects_repeated_test_image(self):
        # evaluate used to count image 0 twice (AP = AR = C = 0.5)
        with pytest.raises(ValidationError, match="^test image 0 is listed more than once$"):
            make_split([[1, 0, 0]], [{1}, {2}], test_ids=(0, 0))

    def test_accepts_valid_split(self):
        split = make_split([[1, 0, 0], [0, 1, 0]], [{1}, {0, 2}])
        assert split.n_test_images == 2


def check_outcome(observed, deleted, ids):
    """EvalSplit raises the message of the oracle's first fault, or, when it
    finds none, holds the oracle's normalized ids and sets."""
    want = split_fault_by_image_loop(observed, deleted, ids)
    try:
        split = EvalSplit(observed=observed, deleted=tuple(deleted), test_image_ids=tuple(ids))
    except ValidationError as exc:
        assert str(exc) == want
        return want
    assert want is None
    assert split.test_image_ids == tuple(int(i) for i in ids)
    assert all(type(i) is int for i in split.test_image_ids)
    assert split.deleted == tuple(frozenset(int(t) for t in d) for d in deleted)
    assert all(type(t) is int for d in split.deleted for t in d)
    return None


@st.composite
def spoiled_splits(draw):
    """A split drawn valid where it can be, with stored zeros and negative
    values in observed, then spoiled by up to three faults of any kind."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = draw(arrays(float, (n, m), elements=st.sampled_from([0.0, 0.0, 1.0, -0.5, 2.0])))
    stored = draw(arrays(bool, (n, m))) | (values != 0.0)
    r, c = np.nonzero(stored)
    observed = TaggingMatrix(sp.csr_matrix((values[r, c], (r, c)), shape=(n, m)))
    ids = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    deleted = []
    for i in ids:
        free = np.flatnonzero(values[i] == 0.0).tolist()
        tags = st.sampled_from(free) if free else st.integers(0, m - 1)
        deleted.append(set(draw(st.sets(tags, min_size=1, max_size=3))))
    for _ in range(draw(st.integers(0, 3)) if ids else 0):
        p = draw(st.integers(0, len(ids) - 1))
        kind = draw(st.sampled_from(["id", "twice", "empty", "tag", "overlap", "unobserved"]))
        if kind == "id":
            ids[p] = draw(st.sampled_from([-1, n, n + 3, 2**70, -(2**70)]))
        elif kind == "twice":
            ids[p] = ids[draw(st.integers(0, len(ids) - 1))]
        elif kind == "empty":
            deleted[p] = set()
        elif kind == "tag":
            deleted[p].add(draw(st.sampled_from([-1, m, 2**70])))
        elif kind == "overlap" and 0 <= ids[p] < n:
            deleted[p] |= set(observed.tags_of(ids[p]).tolist())
        elif kind == "unobserved" and 0 <= ids[p] < n:
            row = observed.matrix.getrow(ids[p])
            observed = TaggingMatrix(observed.matrix - sp.csr_matrix(
                (row.data, row.indices, [0] * (ids[p] + 1) + [row.nnz] * (n - ids[p])),
                shape=(n, m),
            ))
    return observed, deleted, ids


class TestEvalSplitScreen:
    """EvalSplit checks all test images in one pass; its outcome is that of
    split_fault_by_image_loop, the frozen copy of the per-image loop that
    the pass replaced."""

    @settings(max_examples=500, deadline=None)
    @given(spoiled_splits())
    def test_outcome_equals_the_image_loop(self, split):
        check_outcome(*split)

    @pytest.mark.parametrize(
        "observed, deleted, ids, message",
        [
            ([[1, 0, 0]], [{1}], (1,), "test image 1 out of range"),
            ([[1, 0, 0]], [{1}], (-1,), "test image -1 out of range"),
            ([[1, 0, 0]], [{1}, {2}], (0, 0), "test image 0 is listed more than once"),
            ([[1, 0, 0]], [set()], (0,), "image 0 has no deleted tags"),
            ([[1, 0, 0]], [{1, 3}], (0,), "image 0 has deleted tags out of range"),
            ([[1, 0, 0]], [{-1}], (0,), "image 0 has deleted tags out of range"),
            ([[0, 0, 0]], [{1}], (0,), "image 0 has no observed tags"),
            ([[1, 0, 1]], [{0, 1, 2}], (0,), "image 0: tags [0, 2] are both observed and deleted"),
            ([[1, 0], [0, 1]], [{1}], (0, 1), "2 test images but 1 deleted sets"),
            # the second occurrence's own faults come after its duplicate id
            ([[1, 0, 0]], [{1}, {0}], (0, 0), "test image 0 is listed more than once"),
            ([[1, 0, 0]], [{1}, set()], (0, 0), "test image 0 is listed more than once"),
            ([[1, 0], [1, 0]], [{1}, {2**70}], (2**70, 0), f"test image {2**70} out of range"),
        ],
    )
    def test_each_fault_names_itself(self, observed, deleted, ids, message):
        observed = TaggingMatrix.from_dense(np.asarray(observed, dtype=float))
        assert split_fault_by_image_loop(observed, deleted, ids) == message
        with pytest.raises(ValidationError) as raised:
            EvalSplit(observed=observed, deleted=tuple(deleted), test_image_ids=ids)
        assert str(raised.value) == message

    def test_first_fault_in_image_order_is_named(self):
        # image 1's overlap comes before image 2's range fault and image 0's
        # duplicate at position 3
        observed = TaggingMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        deleted = [{1}, {0}, {5}, {1}]
        assert check_outcome(observed, deleted, [0, 1, 2, 0]) == (
            "image 1: tags [0] are both observed and deleted"
        )
        assert check_outcome(observed, deleted[2:], [2, 0]) == (
            "image 2 has deleted tags out of range"
        )

    def test_stored_zero_is_not_an_observed_tag(self):
        observed = TaggingMatrix(sp.csr_matrix(([0.0, -0.0, 1.0], ([0, 0, 0], [0, 1, 2])), shape=(1, 3)))
        assert check_outcome(observed, [{0, 1}], [0]) is None
        assert check_outcome(observed, [{1, 2}], [0]) == (
            "image 0: tags [2] are both observed and deleted"
        )
        zeros = TaggingMatrix(sp.csr_matrix(([0.0], ([0], [2])), shape=(1, 3)))
        assert check_outcome(zeros, [{0}], [0]) == "image 0 has no observed tags"

    def test_numpy_ints_and_bools_normalize(self):
        observed = TaggingMatrix.from_dense(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        ids = [np.int64(0), True]
        assert check_outcome(observed, [{np.int64(1), np.int32(2)}, {False, np.int8(2)}], ids) is None
        assert check_outcome(observed, [{np.int64(1)}, {np.True_}], ids) == (
            "image 1: tags [1] are both observed and deleted"
        )
        assert check_outcome(observed, [{1}], [np.uint64(2**63)]) == (
            f"test image {2**63} out of range"
        )


class TestRankPredictions:
    def test_excludes_observed_and_picks_highest(self):
        split = make_split([[1, 0, 0]], [{2}])
        scores = np.array([[0.9, 0.1, 0.5]])
        assert rank_predictions(scores, split, 1) == [[2]]

    def test_all_equal_scores_tie_break_by_index(self):
        split = make_split([[0, 0, 1]], [{0}])
        scores = np.array([[0.5, 0.5, 0.5]])
        assert rank_predictions(scores, split, 2) == [[0, 1]]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(50)
        observed = (rng.random((5, 6)) < 0.3).astype(float)
        observed[:, 0] = 1.0  # every image observes something
        deleted = []
        for i in range(5):
            free = np.flatnonzero(observed[i] == 0)
            deleted.append({int(free[0])})
        split = make_split(observed, deleted)
        scores = rng.normal(size=(5, 6))
        got = rank_predictions(scores, split, 3)
        for row, img in zip(got, split.test_image_ids):
            want = rank_by_full_sort(
                scores[img], set(np.flatnonzero(observed[img]).tolist())
            )[:3]
            assert row == want

    def test_short_candidate_list_warns(self):
        split = make_split([[1, 1, 0]], [{2}])
        scores = np.zeros((1, 3))
        with pytest.warns(UserWarning, match="fewer than"):
            preds = rank_predictions(scores, split, 5)
        assert preds == [[2]]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(51)
        observed = np.zeros((4, 8))
        observed[:, 7] = 1.0
        split = make_split(observed, [{0}] * 4)
        scores = rng.normal(size=(4, 8))
        a = rank_predictions(scores, split, 4)
        b = rank_predictions(3.0 * scores + 11.0, split, 4)
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_image_loop(self, data):
        n_images, n_tags = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        # stored entries include real values and explicit zeros, which are
        # not observed tags
        values = data.draw(
            arrays(float, (n_images, n_tags), elements=st.sampled_from([0.0, 1.0, -0.5]))
        )
        stored = data.draw(arrays(bool, (n_images, n_tags))) | (values != 0.0)
        r, c = np.nonzero(stored)
        observed = TaggingMatrix(sp.csr_matrix((values[r, c], (r, c)), shape=values.shape))
        eligible = [i for i in range(n_images) if 0 < np.count_nonzero(values[i]) < n_tags]
        order = data.draw(st.permutations(eligible))
        ids = order[: data.draw(st.integers(0, len(order)))]
        deleted = [
            data.draw(st.sets(st.sampled_from(np.flatnonzero(values[i] == 0.0)), min_size=1))
            for i in ids
        ]
        split = EvalSplit(observed=observed, deleted=tuple(deleted), test_image_ids=tuple(ids))
        scores = data.draw(arrays(float, (n_images, n_tags), elements=SCORES))
        n = data.draw(st.integers(1, 5))
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = rank_predictions(scores, split, n)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = rank_by_image_loop(scores, split, n)
        assert got == want
        assert all(type(t) is int for row in got for t in row)
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]

    def test_empty_test_set_ranks_nothing(self):
        observed = TaggingMatrix.from_dense(np.ones((2, 3)))
        split = EvalSplit(observed=observed, deleted=(), test_image_ids=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rank_predictions(np.zeros((2, 3)), split, 2) == []

    def test_rejects_bad_shapes(self):
        split = make_split([[1, 0]], [{1}])
        with pytest.raises(ValidationError):
            rank_predictions(np.zeros((2, 2)), split, 1)


class TestEvaluate:
    def test_perfect_recovery(self):
        split = make_split(
            [[1, 0, 0, 1], [0, 1, 1, 0]], [{1, 2}, {0, 3}]
        )
        preds = [[1, 2], [0, 3]]
        out = evaluate(preds, split, 2)
        assert out == {"AP": 1.0, "AR": 1.0, "C": 1.0}

    def test_disjoint_predictions_score_zero(self):
        split = make_split([[1, 0, 0, 0]], [{1}])
        out = evaluate([[2, 3]], split, 2)
        assert out == {"AP": 0.0, "AR": 0.0, "C": 0.0}

    def test_two_image_worked_example(self):
        # image A: 2 deleted, top-2 hits 1; image B: 1 deleted, top-2 hits 0
        split = make_split(
            [[1, 0, 0, 0, 0], [0, 1, 1, 0, 1]], [{1, 2}, {3}]
        )
        preds = [[1, 3], [0, 4]]
        out = evaluate(preds, split, 2)
        np.testing.assert_allclose(out["AP"], 0.25)
        np.testing.assert_allclose(out["AR"], 0.25)
        np.testing.assert_allclose(out["C"], 0.5)

    def test_matches_hand_oracles_on_random_sets(self):
        rng = np.random.default_rng(52)
        for n_img in [6] * 20 + [3000]:
            n_tags = 10
            observed = np.zeros((n_img, n_tags))
            observed[:, 9] = 1.0
            deleted = []
            for i in range(n_img):
                k = int(rng.integers(1, 4))
                deleted.append(set(rng.choice(9, size=k, replace=False).tolist()))
            split = make_split(observed, deleted)
            preds = [
                rng.permutation(9)[: int(rng.integers(1, 6))].tolist()
                for _ in range(n_img)
            ]
            n = 3
            out = evaluate(preds, split, n)
            dsets = [set(d) for d in deleted]
            assert out["AP"] == average_precision_by_hand(preds, dsets, n)
            assert out["AR"] == average_recall_by_hand(preds, dsets, n)
            assert out["C"] == coverage_by_hand(preds, dsets, n)

    def test_recall_and_coverage_monotone_in_n(self):
        rng = np.random.default_rng(53)
        observed = np.zeros((8, 12))
        observed[:, 11] = 1.0
        deleted = [
            set(rng.choice(11, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(8)
        ]
        split = make_split(observed, deleted)
        scores = rng.normal(size=(8, 12))
        prev_ar, prev_c = 0.0, 0.0
        for n in range(1, 11):
            preds = rank_predictions(scores, split, n)
            out = evaluate(preds, split, n)
            assert out["AR"] >= prev_ar - 1e-12
            assert out["C"] >= prev_c - 1e-12
            prev_ar, prev_c = out["AR"], out["C"]

    def test_permutation_of_test_images_is_irrelevant(self):
        rng = np.random.default_rng(54)
        observed = np.zeros((5, 7))
        observed[:, 6] = 1.0
        deleted = [{i % 6} for i in range(5)]
        scores = rng.normal(size=(5, 7))
        split = make_split(observed, deleted)
        perm = [3, 1, 4, 0, 2]
        split_p = make_split(
            observed, [deleted[i] for i in perm], test_ids=perm
        )
        n = 3
        a = evaluate(rank_predictions(scores, split, n), split, n)
        b = evaluate(rank_predictions(scores, split_p, n), split_p, n)
        assert a == b

    def test_empty_test_set_is_an_error(self):
        observed = TaggingMatrix.from_dense(np.ones((2, 3)))
        split = EvalSplit(observed=observed, deleted=(), test_image_ids=())
        with pytest.raises(ValidationError):
            evaluate([], split, 2)
