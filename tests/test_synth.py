import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import in_block
from oracles import instance_by_image_loop, split_by_image_loop

from tagcomplete.core import TaggingMatrix, ValidationError
from tagcomplete.io import parse_key_values
from tagcomplete.synth import (
    SynthConfig,
    delete_tags,
    generate,
    tag_blocks,
)

COREL_SHAPE = Path(__file__).resolve().parent.parent / "configs" / "corel_shape.cfg"


def small_config(**overrides):
    base = dict(
        n_images=40,
        n_tags=20,
        n_topics=4,
        tags_per_image=3,
        feature_dim=6,
        feature_noise=0.1,
        delete_fraction=0.4,
        rng_seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_rejects_single_tag_per_image(self):
        with pytest.raises(ValidationError):
            small_config(tags_per_image=1)

    def test_rejects_too_many_topics(self):
        with pytest.raises(ValidationError):
            small_config(n_topics=25)

    def test_rejects_block_smaller_than_tags_per_image(self):
        with pytest.raises(ValidationError):
            small_config(n_topics=10, tags_per_image=3)

    def test_rejects_bad_delete_fraction(self):
        with pytest.raises(ValidationError):
            small_config(delete_fraction=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError):
            small_config(feature_noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_rejects_non_finite_noise(self, noise):
        # nan passes a "< 0" check, and inf only fails later, in FeatureMatrix
        with pytest.raises(ValidationError, match="^feature_noise must be finite and >= 0$"):
            small_config(feature_noise=noise)


def test_corel_shape_config_parses():
    # the committed Corel-shape instance, as synth-bench reads it
    cfg = SynthConfig(**parse_key_values(COREL_SHAPE, SynthConfig))
    assert cfg == SynthConfig(
        n_images=4500, n_tags=260, n_topics=20, tags_per_image=6, feature_dim=32,
        feature_noise=0.3, delete_fraction=0.4, off_topic_prob=0.05, rng_seed=7,
    )


class TestTagBlocks:
    def test_partition_covers_all_tags(self):
        blocks = tag_blocks(17, 5)
        joined = np.concatenate(blocks)
        np.testing.assert_array_equal(np.sort(joined), np.arange(17))

    def test_sizes_near_equal(self):
        sizes = [len(b) for b in tag_blocks(17, 5)]
        assert max(sizes) - min(sizes) <= 1


class TestGenerate:
    def test_tag_count_per_image(self):
        inst = generate(small_config())
        dense = inst.truth.to_dense()
        np.testing.assert_array_equal(dense.sum(axis=1), 3.0)

    def test_noiseless_features_identical_within_topic(self):
        inst = generate(small_config(feature_noise=0.0))
        X = inst.features.data
        for topic in range(4):
            members = np.flatnonzero(inst.topics == topic)
            for i in members[1:]:
                np.testing.assert_array_equal(X[i], X[members[0]])

    def test_deterministic_given_seed(self):
        a = generate(small_config())
        b = generate(small_config())
        assert (a.truth.matrix != b.truth.matrix).nnz == 0
        np.testing.assert_array_equal(a.features.data, b.features.data)
        np.testing.assert_array_equal(a.topics, b.topics)

    def test_different_seed_changes_instance(self):
        a = generate(small_config())
        b = generate(small_config(rng_seed=1))
        assert (a.truth.matrix != b.truth.matrix).nnz > 0

    def test_zero_off_topic_tags_stay_in_block(self):
        cfg = small_config(off_topic_prob=0.0)
        inst = generate(cfg)
        outside = inst.truth.to_dense() * (1.0 - in_block(cfg, inst.topics))
        assert outside.sum() == 0.0

    def test_full_block_coverage_equals_planted_product(self):
        cfg = small_config(
            n_tags=20, n_topics=4, tags_per_image=5, off_topic_prob=0.0
        )
        inst = generate(cfg)
        np.testing.assert_array_equal(inst.truth.to_dense(), in_block(cfg, inst.topics))

    def test_off_topic_rate_roughly_matches(self):
        cfg = small_config(
            n_images=2000, n_tags=40, n_topics=4, tags_per_image=5,
            off_topic_prob=0.2,
        )
        inst = generate(cfg)
        outside = inst.truth.to_dense() * (1.0 - in_block(cfg, inst.topics))
        rate = outside.sum() / (2000 * 5)
        assert 0.15 <= rate <= 0.25


class TestDeleteTags:
    def test_five_tags_forty_percent_deletes_two(self):
        cfg = small_config(n_tags=20, n_topics=4, tags_per_image=5)
        inst = generate(cfg)
        split = delete_tags(inst.truth, 0.4, rng_seed=1)
        for img, dels in zip(split.test_image_ids, split.deleted):
            assert len(dels) == 2
            assert len(split.observed.tags_of(img)) == 3

    def test_rounding_clamps_to_at_least_one(self):
        inst = generate(small_config(tags_per_image=2))
        split = delete_tags(inst.truth, 0.05, rng_seed=2)
        for dels in split.deleted:
            assert len(dels) == 1

    def test_clamps_to_leave_one_remaining(self):
        inst = generate(small_config(tags_per_image=2))
        split = delete_tags(inst.truth, 0.99, rng_seed=3)
        for img, dels in zip(split.test_image_ids, split.deleted):
            assert len(dels) == 1
            assert len(split.observed.tags_of(img)) == 1

    def test_observed_plus_deleted_is_truth(self):
        inst = generate(small_config())
        split = delete_tags(inst.truth, 0.4, rng_seed=4)
        rebuilt = split.observed.to_dense().copy()
        for img, dels in zip(split.test_image_ids, split.deleted):
            for t in dels:
                assert rebuilt[img, t] == 0.0
                rebuilt[img, t] = 1.0
        np.testing.assert_array_equal(rebuilt, inst.truth.to_dense())

    def test_global_deletion_rate_near_fraction(self):
        cfg = small_config(
            n_images=1000, n_tags=40, n_topics=4, tags_per_image=5
        )
        inst = generate(cfg)
        split = delete_tags(inst.truth, 0.4, rng_seed=5)
        total_deleted = sum(len(d) for d in split.deleted)
        rate = total_deleted / inst.truth.matrix.nnz
        assert abs(rate - 0.4) <= 0.05 * 0.4 + 1e-9

    def test_deterministic(self):
        inst = generate(small_config())
        a = delete_tags(inst.truth, 0.4, rng_seed=6)
        b = delete_tags(inst.truth, 0.4, rng_seed=6)
        assert a.deleted == b.deleted
        assert (a.observed.matrix != b.observed.matrix).nnz == 0

    def test_image_with_single_tag_is_an_error(self):
        from tagcomplete.core import TaggingMatrix

        D = TaggingMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValidationError, match="image 0"):
            delete_tags(D, 0.4, rng_seed=0)


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes), CSR matrices (their
    three arrays) and other values (their repr)."""
    h = hashlib.sha256()
    for part in parts:
        if sp.issparse(part):
            parts_of = (part.data, part.indices, part.indptr, np.asarray(part.shape))
        elif isinstance(part, np.ndarray):
            parts_of = (part,)
        else:
            h.update(repr(part).encode())
            continue
        for array in parts_of:
            h.update(f"{array.dtype}{array.shape}".encode())
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def split_outcome(make):
    """The digest of the split that make() returns, as (observed, deleted,
    test_image_ids), or the message of the ValidationError it raises."""
    try:
        observed, deleted, ids = make()
    except ValidationError as exc:
        return "error: " + str(exc)
    return digest(observed.matrix, [sorted(map(repr, d)) for d in deleted], ids)


def package_split(truth, fraction, rng_seed):
    split = delete_tags(truth, fraction, rng_seed)
    return split.observed, split.deleted, split.test_image_ids


@st.composite
def synth_configs(draw):
    """Valid SynthConfigs, with off_topic_prob at 0 and near 1, blocks
    exactly as large as tags_per_image, and delete_fraction near 0 and 1."""
    n_topics = draw(st.integers(1, 6))
    n_tags = draw(st.integers(2 * n_topics, 40))
    smallest = n_tags // n_topics
    return SynthConfig(
        n_images=draw(st.integers(n_topics, 60)),
        n_tags=n_tags,
        n_topics=n_topics,
        tags_per_image=draw(st.sampled_from([2, smallest]) | st.integers(2, smallest)),
        feature_dim=draw(st.integers(1, 4)),
        feature_noise=draw(st.sampled_from([0.0, 0.3])),
        delete_fraction=draw(
            st.sampled_from([1e-9, 0.05, 0.95, 1.0 - 1e-9]) | st.floats(0.01, 0.99)
        ),
        rng_seed=draw(st.integers(0, 2**32)),
        off_topic_prob=draw(st.sampled_from([0.0, 0.999]) | st.floats(0.0, 0.9)),
    )


class TestImageLoopOracles:
    """generate and delete_tags draw what the one-image-at-a-time loops of
    tests/oracles.py draw, and build the same bits from it."""

    def check(self, cfg):
        got = generate(cfg)
        want = instance_by_image_loop(cfg)
        assert digest(got.truth.matrix, got.features.data, got.topics) == digest(
            want[0].matrix, want[1].data, want[2]
        )
        args = (got.truth, cfg.delete_fraction, cfg.rng_seed + 1)
        assert split_outcome(lambda: package_split(*args)) == split_outcome(
            lambda: split_by_image_loop(*args)
        )

    @settings(max_examples=150, deadline=None)
    @given(synth_configs())
    def test_instance_and_split_equal_the_image_loops(self, cfg):
        self.check(cfg)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_of_any_truth_equals_the_image_loop(self, data):
        # stored zeros, -0.0, negative and non-binary values: the tags of an
        # image are its nonzero entries, and observed keeps their values
        n, m = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 7))
        cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])
        values = data.draw(arrays(float, (n, m), elements=cells))
        if data.draw(st.booleans()):  # every row splittable
            values[:, :2] = data.draw(st.sampled_from([1.0, -3.0]))
        stored = data.draw(arrays(bool, (n, m))) | (values != 0.0)
        r, c = np.nonzero(stored)
        truth = TaggingMatrix(sp.csr_matrix((values[r, c], (r, c)), shape=(n, m)))
        fraction = data.draw(st.sampled_from([1e-9, 0.5, 1.0 - 1e-9]) | st.floats(0.01, 0.99))
        seed = data.draw(st.integers(0, 2**32))
        assert split_outcome(lambda: package_split(truth, fraction, seed)) == split_outcome(
            lambda: split_by_image_loop(truth, fraction, seed)
        )

    def test_corel_shape_equals_the_image_loops(self):
        self.check(SynthConfig(**parse_key_values(COREL_SHAPE, SynthConfig)))

    def test_corel_shape_split_forms_no_dense_copy(self):
        cfg = SynthConfig(**parse_key_values(COREL_SHAPE, SynthConfig))
        truth = generate(cfg).truth
        tracemalloc.start()
        try:
            delete_tags(truth, cfg.delete_fraction, cfg.rng_seed + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < truth.n_images * truth.n_tags * 8
