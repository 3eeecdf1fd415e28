"""Planted-structure synthetic instances for quantitative testing.

Tags are partitioned into per-topic blocks; each image belongs to one topic
and carries tags drawn from its block (with an optional off-topic fraction),
so the true tagging matrix has rank close to the number of topics.  Features
are a noisy random embedding of the topic indicator, so images sharing a
topic are feature-space neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import FeatureMatrix, TaggingMatrix, ValidationError
from .metrics import EvalSplit


@dataclass(frozen=True)
class SynthConfig:
    n_images: int
    n_tags: int
    n_topics: int
    tags_per_image: int
    feature_dim: int
    feature_noise: float
    delete_fraction: float
    rng_seed: int
    off_topic_prob: float = 0.1

    def __post_init__(self):
        for name in ("n_images", "n_tags", "n_topics", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.tags_per_image < 2:
            raise ValidationError("tags_per_image must be >= 2")
        if self.n_topics > min(self.n_images, self.n_tags):
            raise ValidationError(
                "n_topics cannot exceed min(n_images, n_tags)"
            )
        if not 0 <= self.feature_noise < np.inf:  # nan fails too
            raise ValidationError("feature_noise must be finite and >= 0")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        if not (0.0 < self.delete_fraction < 1.0):
            raise ValidationError("delete_fraction must be in (0, 1)")
        if not (0.0 <= self.off_topic_prob < 1.0):
            raise ValidationError("off_topic_prob must be in [0, 1)")
        if min(len(b) for b in tag_blocks(self.n_tags, self.n_topics)) < (
            self.tags_per_image
        ):
            raise ValidationError(
                f"smallest topic tag block is too small for "
                f"tags_per_image={self.tags_per_image}"
            )


def tag_blocks(n_tags: int, n_topics: int) -> list:
    """Contiguous near-equal partition of tag indices into topic blocks."""
    base, extra = divmod(n_tags, n_topics)
    blocks, start = [], 0
    for b in range(n_topics):
        size = base + (1 if b < extra else 0)
        blocks.append(np.arange(start, start + size))
        start += size
    return blocks


@dataclass(frozen=True)
class SynthInstance:
    truth: TaggingMatrix
    features: FeatureMatrix
    planted_U: np.ndarray
    planted_V: np.ndarray
    topics: np.ndarray


def generate(cfg: SynthConfig) -> SynthInstance:
    """Build one seeded instance; bitwise deterministic for a fixed config.

    planted_U is the image-topic indicator and planted_V the topic-block tag
    indicator, so planted_U @ planted_V marks every in-block (image, tag)
    pair; it equals the truth matrix exactly when tags_per_image covers the
    whole block and off_topic_prob is 0.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    blocks = tag_blocks(cfg.n_tags, cfg.n_topics)
    topics = rng.integers(0, cfg.n_topics, size=cfg.n_images)

    all_tags = np.arange(cfg.n_tags)
    rows, cols = [], []
    for i in range(cfg.n_images):
        block = blocks[topics[i]]
        n_off = int(rng.binomial(cfg.tags_per_image, cfg.off_topic_prob))
        n_off = min(n_off, cfg.n_tags - len(block))
        n_on = cfg.tags_per_image - n_off
        chosen = rng.choice(block, size=n_on, replace=False)
        if n_off:
            outside = np.setdiff1d(all_tags, block, assume_unique=True)
            off = rng.choice(outside, size=n_off, replace=False)
            chosen = np.concatenate([chosen, off])
        rows.extend([i] * len(chosen))
        cols.extend(int(t) for t in chosen)
    truth = TaggingMatrix(
        sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(cfg.n_images, cfg.n_tags),
        )
    )

    projection = rng.normal(size=(cfg.n_topics, cfg.feature_dim))
    embed = projection[topics]
    if cfg.feature_noise > 0:
        embed = embed + cfg.feature_noise * rng.normal(
            size=(cfg.n_images, cfg.feature_dim)
        )
    features = FeatureMatrix(embed)

    planted_U = np.zeros((cfg.n_images, cfg.n_topics))
    planted_U[np.arange(cfg.n_images), topics] = 1.0
    planted_V = np.zeros((cfg.n_topics, cfg.n_tags))
    for b, block in enumerate(blocks):
        planted_V[b, block] = 1.0
    return SynthInstance(
        truth=truth,
        features=features,
        planted_U=planted_U,
        planted_V=planted_V,
        topics=topics,
    )


def delete_tags(truth: TaggingMatrix, fraction: float, rng_seed: int) -> EvalSplit:
    """Randomly hide a fraction of each image's tags.

    Per image, round(fraction * |tags|) tags are removed, clamped so at least
    one tag is removed and at least one remains.  Deterministic given the
    seed.  Every image becomes a test image.
    """
    if not (0.0 < fraction < 1.0):
        raise ValidationError("fraction must be in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    dense = truth.to_dense()
    observed = dense.copy()
    deleted, test_ids = [], []
    for i in range(truth.n_images):
        tags = np.flatnonzero(dense[i])
        if len(tags) < 2:
            raise ValidationError(
                f"image {i} has {len(tags)} tag(s); need >= 2 to split"
            )
        n_del = int(round(fraction * len(tags)))
        n_del = min(max(n_del, 1), len(tags) - 1)
        removed = rng.choice(tags, size=n_del, replace=False)
        observed[i, removed] = 0.0
        deleted.append(frozenset(int(t) for t in removed))
        test_ids.append(i)
    return EvalSplit(
        observed=TaggingMatrix.from_dense(observed),
        deleted=tuple(deleted),
        test_image_ids=tuple(test_ids),
    )
