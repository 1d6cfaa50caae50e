import numpy as np
import pytest

from growcast.analysis import (
    AnalysisError,
    best_rank_k,
    dispersion_decomposition,
    heterogeneity_D,
    metrics,
    random_projection_probe,
    svd_cumulative,
)
from oracles import heterogeneity_D_double_sum, neutralize_cross_covariance


class TestMetrics:
    def test_hand_values(self):
        out = metrics([1.0, 3.0], [1.0, 2.0])
        assert out["MAE"] == pytest.approx(0.5)
        assert out["RMSE"] == pytest.approx(np.sqrt(0.5))

    def test_mape_percent(self):
        assert metrics([110.0], [100.0])["MAPE"] == pytest.approx(10.0)

    def test_perfect_predictor(self):
        out = metrics(np.ones(5), np.ones(5))
        assert out["MAE"] == 0 and out["RMSE"] == 0 and out["MAPE"] == 0

    def test_mape_mask(self):
        # the zero truth is masked: only the 50% error at truth 2 counts
        out = metrics([1.0, 1.0], [0.0, 2.0])
        assert out["MAPE"] == pytest.approx(50.0)
        assert set(out) == {"MAE", "RMSE", "MAPE"}

    def test_rmse_of_huge_errors_is_finite(self):
        # 1e200 squares, and two errors of 1.7e308 sum, past the float range
        out = metrics([1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        assert out["RMSE"] == pytest.approx(0.5e200, rel=1e-15)
        assert out["MAE"] == pytest.approx(0.25e200, rel=1e-15)
        assert metrics([-1.7e308, 1.7e308], [0.0, 0.0])["RMSE"] == 1.7e308

    def test_bit_equal_to_the_unscaled_formulas(self):
        # scaling by a power of two is exact, so ordinary errors keep every bit
        rng = np.random.default_rng(3)
        for scale in (1e-30, 1e-3, 1.0, 7.0, 1e5, 1e100):
            p, y = (scale * rng.standard_normal((64, 12, 9)) for _ in range(2))
            out = metrics(p, y)
            assert out["MAE"] == float(np.abs(p - y).mean())
            assert out["RMSE"] == float(np.sqrt(((p - y) ** 2).mean()))

    def test_all_masked_is_undefined_not_zero(self):
        out = metrics([1.0], [0.0])
        assert out["MAPE"] is None

    def test_mae_bounded_by_rmse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.standard_normal(20)
            y = rng.standard_normal(20)
            out = metrics(p, y)
            assert out["MAE"] <= out["RMSE"] + 1e-12

    def test_errors(self):
        with pytest.raises(AnalysisError):
            metrics([1.0], [1.0, 2.0])
        with pytest.raises(AnalysisError):
            metrics([], [])


class TestHeterogeneity:
    def test_two_point_example(self):
        assert heterogeneity_D([[0.0], [2.0]]) == pytest.approx(2.0)
        assert heterogeneity_D_double_sum([[0.0], [2.0]]) == pytest.approx(2.0)

    def test_identical_rows_zero(self):
        assert heterogeneity_D(np.ones((5, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_matches_double_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            X = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 8))))
            a = heterogeneity_D(X)
            b = heterogeneity_D_double_sum(X)
            assert abs(a - b) <= 1e-9 * (1 + abs(b))

    @pytest.mark.parametrize("c", [1e4, 1e8, 1e9, 1e12])
    def test_a_common_offset_costs_no_digits(self, c):
        # entries on a 2^-13 grid, which X + c holds exactly up to c = 1e12;
        # the uncentered closed form read 64.0 at 1e8 and 8.6e9 at 1e12
        X, P = np.round(np.random.default_rng(0).standard_normal((2, 50, 16)) * 2**13) / 2**13
        assert heterogeneity_D(X + c) == pytest.approx(heterogeneity_D(X), rel=1e-9, abs=0)
        got, want = dispersion_decomposition(X + c, P + c), dispersion_decomposition(X, P)
        assert got.cross_term == pytest.approx(want.cross_term, rel=1e-9, abs=0)

    def test_offset_rows_have_nonnegative_dispersion(self):
        X = np.random.default_rng(0).standard_normal((50, 16))
        assert heterogeneity_D(X + 1e9) >= 0.0  # the uncentered closed form read -4096


class TestDispersionDecomposition:
    def test_equal_row_prompt_no_shift(self):
        rep = dispersion_decomposition([[1.0], [-1.0]], [[1.0], [1.0]])
        assert rep.D_after - rep.D_before == pytest.approx(0.0)
        assert rep.paper_rhs == pytest.approx(0.0)
        assert rep.cross_term == pytest.approx(0.0)
        assert rep.residual == pytest.approx(0.0)

    def test_zero_prompt_all_zero_fields(self):
        rep = dispersion_decomposition([[1.0], [2.0]], [[0.0], [0.0]])
        assert rep.paper_rhs == 0 and rep.cross_term == 0 and rep.residual == 0

    def test_anticorrelated_prompt_breaks_inequality(self):
        # the spread term alone claims +2 but the cross term is -4
        rep = dispersion_decomposition([[1.0], [-1.0]], [[-1.0], [1.0]])
        assert rep.D_after - rep.D_before == pytest.approx(-2.0)
        assert rep.paper_rhs == pytest.approx(2.0)
        assert rep.cross_term == pytest.approx(-4.0)
        assert rep.residual == pytest.approx(0.0)
        assert not rep.inequality_held

    def test_identity_exact_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 33))
            X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10)
            P = rng.standard_normal((n, d)) * rng.uniform(0.1, 10)
            rep = dispersion_decomposition(X, P)
            delta = rep.D_after - rep.D_before
            assert abs(rep.residual) <= 1e-9 * (1 + abs(delta))

    def test_neutralized_prompt_restores_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 16))
            X = rng.standard_normal((n, d))
            P = neutralize_cross_covariance(X, rng.standard_normal((n, d)))
            rep = dispersion_decomposition(X, P)
            delta = rep.D_after - rep.D_before
            assert abs(rep.cross_term) <= 1e-8 * (1 + abs(delta))
            assert delta >= -1e-10
            assert delta == pytest.approx(rep.paper_rhs, abs=1e-8)


class TestSvdCumulative:
    def test_diagonal_example(self):
        rep = svd_cumulative(np.diag([3.0, 1.0]), k=1)
        assert rep.singular_values == (3.0, 1.0)
        assert rep.cumulative_ratio == pytest.approx((0.75, 1.0))
        assert rep.rank_k_error == pytest.approx(1.0)

    def test_rank_one_exact(self):
        u = np.arange(1.0, 5.0)[:, None]
        v = np.arange(1.0, 4.0)[None, :]
        rep = svd_cumulative(u @ v, k=1)
        assert rep.rank_k_error == pytest.approx(0.0, abs=1e-10)

    def test_zero_matrix_marker(self):
        rep = svd_cumulative(np.zeros((3, 3)))
        assert rep.cumulative_ratio is None

    def test_monotone_ratios(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            P = rng.standard_normal((int(rng.integers(2, 15)), int(rng.integers(2, 15))))
            rep = svd_cumulative(P)
            ratios = np.array(rep.cumulative_ratio)
            assert np.all(np.diff(ratios) >= -1e-12)
            assert ratios[-1] == pytest.approx(1.0)

    def test_eckart_young_against_reconstruction_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = rng.standard_normal((int(rng.integers(3, 20)), int(rng.integers(3, 20))))
            k = int(rng.integers(1, min(P.shape)))
            rep = svd_cumulative(P, k=k)
            direct = float(np.linalg.norm(P - best_rank_k(P, k)))
            assert abs(rep.rank_k_error - direct) <= 1e-8


class TestRandomProjectionProbe:
    def test_oracle_mode_exact_for_low_rank(self):
        # the truncated SVD reconstructs a rank-k matrix exactly, so the
        # probe's floor is zero
        rng = np.random.default_rng(6)
        A = rng.standard_normal((12, 3))
        B = rng.standard_normal((3, 7))
        P = A @ B
        assert np.linalg.norm(P - best_rank_k(P, 3)) <= 1e-10 * np.linalg.norm(P)
        out = random_projection_probe(P, k=3, epsilon=0.01, trials=5)
        assert out["svd_floor"] == pytest.approx(0.0, abs=1e-10)

    def test_error_shrinks_as_n_grows_at_full_rank(self):
        # at k = n, E[error^2] = (n+1)/n, so the root-mean-square relative
        # error shrinks toward 1 and the trial spread tightens; the raw
        # median rises toward 1 from below at small n (right skew), so the
        # mean-square trend is the one checked
        rms, spread = [], []
        for n in (4, 16, 64):
            rng = np.random.default_rng(7)
            P = rng.standard_normal((n, 5))
            out = random_projection_probe(P, k=n, epsilon=1.0, trials=200, seed=1)
            errs = np.asarray(out["errors"])
            rms.append(float(np.sqrt(np.mean(errs ** 2))))
            q = out["error_quantiles"]
            spread.append(q["q75"] - q["q25"])
        assert rms[2] < rms[0]
        assert spread[2] < spread[1] < spread[0]
        assert abs(rms[2] - np.sqrt(1 + 1 / 64)) < 0.05

    def test_spectral_obstruction_reported_and_real(self):
        rng = np.random.default_rng(8)
        P = rng.standard_normal((20, 6))
        out = random_projection_probe(P, k=4, epsilon=0.9, trials=10, seed=2)
        assert out["spectral_obstruction"] is not None
        # numerical confirmation of the rank argument
        phi = rng.standard_normal((4, 20)) / 2.0
        gap = np.linalg.norm(np.eye(20) - phi.T @ phi, ord=2)
        assert gap >= 1.0

    def test_floor_below_random_errors(self):
        rng = np.random.default_rng(9)
        P = rng.standard_normal((15, 8))
        out = random_projection_probe(P, k=4, epsilon=0.9, trials=20, seed=3)
        assert out["svd_floor"] <= out["error_quantiles"]["min"] + 1e-12

    def test_validation(self):
        with pytest.raises(AnalysisError):
            random_projection_probe(np.ones((3, 3)), k=0, epsilon=0.5, trials=1)
        with pytest.raises(AnalysisError):
            random_projection_probe(np.zeros((3, 3)), k=1, epsilon=0.5, trials=1)
