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


def random_pool(n=20, k=4, d=8, seed=0, periods=1):
    rng = np.random.default_rng(seed)
    pool = init_pool(n, d=d, k=k, seed=seed)
    pool.factors[0].value = rng.standard_normal((n, k))
    for tau in range(2, periods + 1):
        expand(pool, 3, period_index=tau)
        pool.factors[-1].value = rng.standard_normal((3, k))
    return pool


class TestInit:
    def test_zero_prompt_at_init(self):
        pool = init_pool(10, d=8, k=3, seed=1)
        assert np.array_equal(materialize(pool), np.zeros((10, 8)))

    def test_counts_lowrank(self):
        pool = init_pool(100, d=64, k=6, seed=0)
        assert param_count(pool)["tunable"] == 100 * 6 + 6 * 64 == 984

    def test_counts_full(self):
        pool = init_pool(100, d=64, mode="full", seed=0)
        assert param_count(pool)["tunable"] == 6400

    def test_full_is_rank_d_over_frozen_identity(self):
        pools = [init_pool(12, d=8, k=3, mode="full", seed=seed) for seed in (0, 1)]
        pool = pools[0]
        assert pool.B.value.shape == (8, 8) and pool.B.name == "pool.B" and not pool.B.trainable
        assert pool.B.value.tobytes() == np.eye(8).tobytes() == pools[1].B.value.tobytes()
        assert [p.name for p in pool.parameters() if p.trainable] == ["pool.A1"]
        assert param_count(pool)["tunable"] == 12 * 8
        expand(pool, 3, period_index=2)
        assert param_count(pool)["tunable"] == 15 * 8
        A = np.random.default_rng(0).standard_normal((15, 8))
        pool.factors[0].value, pool.factors[1].value = A[:12], A[12:]
        assert materialize(pool).tobytes() == A.tobytes()

    def test_k_range_enforced(self):
        with pytest.raises(PoolError):
            init_pool(4, d=64, k=5)
        with pytest.raises(PoolError):
            init_pool(0, d=8, k=2)

    def test_b_scale(self):
        pool = init_pool(50, d=256, k=16, seed=7)
        assert pool.B.value.std() == pytest.approx(1 / np.sqrt(16), rel=0.15)


class TestExpand:
    def test_append_only(self):
        pool = random_pool()
        before = hashlib.sha256(
            pool.factors[0].value.tobytes() + pool.B.value.tobytes()).hexdigest()
        old_rows = materialize(pool).copy()
        expand(pool, 5, period_index=2)
        after = hashlib.sha256(
            pool.factors[0].value.tobytes() + pool.B.value.tobytes()).hexdigest()
        assert before == after
        assert np.array_equal(materialize(pool)[:20], old_rows)

    def test_empty_expand_noop(self):
        pool = random_pool()
        expand(pool, 0, period_index=2)
        assert [A.name for A in pool.factors] == ["pool.A1"]

    def test_factor_named_after_its_period(self):
        pool = random_pool()
        expand(pool, 2, period_index=3)
        expand(pool, 1, period_index=4)
        assert [A.name for A in pool.factors] == ["pool.A1", "pool.A3", "pool.A4"]
        assert [p.name for p in pool.parameters()] == ["pool.A1", "pool.A3", "pool.A4",
                                                        "pool.B"]

    @pytest.mark.parametrize("mode, k, d, rank", [("lowrank", 3, 7, 3), ("full", 3, 5, 5)])
    def test_new_factor_follows_the_shape_of_B(self, mode, k, d, rank):
        # the pool stores no k or d of its own: a new factor is as wide as B
        # is tall, and the prompt as wide as B
        pool = init_pool(6, d=d, k=k, mode=mode, seed=2)
        expand(pool, 2, period_index=2)
        assert [A.value.shape for A in pool.factors] == [(6, rank), (2, rank)]
        assert materialize(pool).shape == (8, d)
        pool.B.value = np.ones((4, 9))
        expand(pool, 3, period_index=3)
        assert pool.factors[-1].value.shape == (3, 4)

    def test_tunable_grows_by_k_per_node(self):
        pool = init_pool(30, d=16, k=5)
        base = param_count(pool)["tunable"]
        expand(pool, 10, period_index=2)
        assert param_count(pool)["tunable"] == base + 10 * 5


class TestMaterialize:
    def test_two_by_two_product(self):
        pool = init_pool(2, d=2, k=2, seed=0)
        pool.factors[0].value = np.eye(2)
        pool.B.value = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(materialize(pool), [[1, 2], [3, 4]])

    def test_row_count_matches_factors(self):
        pool = random_pool(periods=3)
        assert materialize(pool).shape[0] == sum(len(A.value) for A in pool.factors) == 26

    def test_rank_bounded_by_k(self):
        for seed in range(5):
            pool = random_pool(n=30, k=4, d=12, seed=seed, periods=2)
            sigma = np.linalg.svd(materialize(pool), compute_uv=False)
            assert np.all(sigma[4:] < 1e-10)


class TestParamCount:
    def test_ratio_example(self):
        pool = init_pool(500, d=64, k=6)
        counts = param_count(pool)
        assert counts["tunable"] == 3384
        assert counts["materialized"] == 32000
        assert counts["ratio"] == pytest.approx(0.10575)

    def test_full_ratio_is_one(self):
        pool = init_pool(10, d=8, mode="full")
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
