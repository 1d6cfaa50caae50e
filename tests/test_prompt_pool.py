import hashlib

import numpy as np
import pytest

from growcast.prompt_pool import (
    PoolError,
    expand,
    init_pool,
    materialize,
)
from oracles import pool_param_count as param_count


def ids(n, prefix="n"):
    return tuple("%s%03d" % (prefix, i) for i in range(n))


def random_pool(n=20, k=4, d=8, seed=0, segments=1):
    rng = np.random.default_rng(seed)
    pool = init_pool(ids(n), d=d, k=k, seed=seed)
    pool.segments[0].A.value = rng.standard_normal((n, k))
    for s in range(segments - 1):
        extra = ids(3, prefix="x%d_" % s)
        expand(pool, extra, period_index=s + 2)
        pool.segments[-1].A.value = rng.standard_normal((3, k))
    return pool


class TestInit:
    def test_zero_prompt_at_init(self):
        pool = init_pool(ids(10), d=8, k=3, seed=1)
        assert np.array_equal(materialize(pool), np.zeros((10, 8)))

    def test_counts_lowrank(self):
        pool = init_pool(ids(100), d=64, k=6, seed=0)
        assert param_count(pool)["tunable"] == 100 * 6 + 6 * 64 == 984

    def test_counts_full(self):
        pool = init_pool(ids(100), d=64, mode="full", seed=0)
        assert param_count(pool)["tunable"] == 6400

    def test_full_is_rank_d_over_frozen_identity(self):
        pools = [init_pool(ids(12), d=8, k=3, mode="full", seed=seed) for seed in (0, 1)]
        pool = pools[0]
        assert pool.B.value.shape == (8, 8) and pool.B.name == "pool.B" and not pool.B.trainable
        assert pool.B.value.tobytes() == np.eye(8).tobytes() == pools[1].B.value.tobytes()
        assert [p.name for p in pool.parameters() if p.trainable] == ["pool.A1"]
        assert param_count(pool)["tunable"] == 12 * 8
        expand(pool, ids(3, "new"), period_index=2)
        assert param_count(pool)["tunable"] == 15 * 8
        A = np.random.default_rng(0).standard_normal((15, 8))
        pool.segments[0].A.value, pool.segments[1].A.value = A[:12], A[12:]
        assert materialize(pool).tobytes() == A.tobytes()

    def test_k_range_enforced(self):
        with pytest.raises(PoolError):
            init_pool(ids(4), d=64, k=5)
        with pytest.raises(PoolError):
            init_pool((), d=8, k=2)

    def test_b_scale(self):
        pool = init_pool(ids(50), d=256, k=16, seed=7)
        assert pool.B.value.std() == pytest.approx(1 / np.sqrt(16), rel=0.15)


class TestExpand:
    def test_append_only(self):
        pool = random_pool()
        before = hashlib.sha256(
            pool.segments[0].A.value.tobytes() + pool.B.value.tobytes()).hexdigest()
        old_rows = materialize(pool).copy()
        expand(pool, ids(5, "new"), period_index=2)
        after = hashlib.sha256(
            pool.segments[0].A.value.tobytes() + pool.B.value.tobytes()).hexdigest()
        assert before == after
        assert np.array_equal(materialize(pool)[:20], old_rows)

    def test_empty_expand_noop(self):
        pool = random_pool()
        expand(pool, (), period_index=2)
        assert len(pool.segments) == 1

    def test_duplicate_rejected(self):
        pool = random_pool()
        with pytest.raises(PoolError):
            expand(pool, (pool.node_ids[0],), period_index=2)

    @pytest.mark.parametrize("mode, k, d, rank", [("lowrank", 3, 7, 3), ("full", 3, 5, 5)])
    def test_new_segment_follows_the_shape_of_B(self, mode, k, d, rank):
        # the pool stores no k or d of its own: a new segment is as wide as B
        # is tall, and the prompt as wide as B
        pool = init_pool(ids(6), d=d, k=k, mode=mode, seed=2)
        expand(pool, ids(2, "new"), period_index=2)
        assert [seg.A.value.shape for seg in pool.segments] == [(6, rank), (2, rank)]
        assert materialize(pool).shape == (8, d)
        pool.B.value = np.ones((4, 9))
        expand(pool, ids(3, "late"), period_index=3)
        assert pool.segments[-1].A.value.shape == (3, 4)

    def test_tunable_grows_by_k_per_node(self):
        pool = init_pool(ids(30), d=16, k=5)
        base = param_count(pool)["tunable"]
        expand(pool, ids(10, "new"), period_index=2)
        assert param_count(pool)["tunable"] == base + 10 * 5


class TestMaterialize:
    def test_two_by_two_product(self):
        pool = init_pool(ids(2), d=2, k=2, seed=0)
        pool.segments[0].A.value = np.eye(2)
        pool.B.value = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(materialize(pool), [[1, 2], [3, 4]])

    def test_row_count_matches_segments(self):
        pool = random_pool(segments=3)
        assert materialize(pool).shape[0] == len(pool.node_ids) == 26

    def test_rank_bounded_by_k(self):
        for seed in range(5):
            pool = random_pool(n=30, k=4, d=12, seed=seed, segments=2)
            sigma = np.linalg.svd(materialize(pool), compute_uv=False)
            assert np.all(sigma[4:] < 1e-10)


class TestParamCount:
    def test_ratio_example(self):
        pool = init_pool(ids(500), d=64, k=6)
        counts = param_count(pool)
        assert counts["tunable"] == 3384
        assert counts["materialized"] == 32000
        assert counts["ratio"] == pytest.approx(0.10575)

    def test_full_ratio_is_one(self):
        pool = init_pool(ids(10), d=8, mode="full")
        assert param_count(pool)["ratio"] == 1.0

    def test_lowrank_smaller_when_k_below_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 200))
            d = int(rng.integers(2, 100))
            k = int(rng.integers(1, min(n, d) + 1))
            lowrank = k * n + k * d
            full = n * d
            if k < d * n / (n + d):
                assert lowrank < full
