import math

import numpy as np
import pytest

from growcast.graph_stream import (
    ExpansionViolation,
    GraphStreamError,
    PeriodGraph,
    StreamGraph,
    build_adjacency,
    cheb_polynomials,
    diff_nodes,
    normalize_adjacency,
    read_distances,
    scaled_laplacian,
)


def make_graph(tau, ids, dist=None):
    n = len(ids)
    if dist is None:
        dist = np.zeros((n, n))
    return PeriodGraph(period_index=tau, nodes=tuple(ids), distances=dist,
                       adjacency=np.zeros((n, n)))


class TestBuildAdjacency:
    def test_kernel_values(self):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        sigma = np.std(d[~np.eye(3, dtype=bool)])  # sqrt(2/9)
        A = build_adjacency(d, r=0.001)
        assert A[0][1] == pytest.approx(math.exp(-1 / sigma ** 2))
        assert A[1][2] == pytest.approx(math.exp(-1 / sigma ** 2))
        assert A[0][2] == 0.0  # exp(-18) < 0.001

    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        d = np.abs(rng.standard_normal((5, 5)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0)
        A = build_adjacency(d, r=0.0)
        assert np.all(np.diag(A) == 0)

    def test_high_threshold_keeps_only_tiny_distances(self):
        # exp(-x^2 / sigma^2) >= 0.99 iff x <= sigma * sqrt(-ln(0.99))
        d = np.array([[0, 0.04, 1], [0.04, 0, 1], [1, 1, 0]])
        sigma = np.std(d[~np.eye(3, dtype=bool)])
        reach = sigma * math.sqrt(-math.log(0.99))
        assert 0.8 * reach < 0.04 < reach  # just inside the threshold
        A = build_adjacency(d, r=0.99)
        assert A[0][1] == pytest.approx(math.exp(-(0.04 / sigma) ** 2))
        assert A[0][2] == 0 and A[1][2] == 0

    def test_sigma_from_off_diagonal_spread(self):
        d = np.array([[0.0, 1, 3], [1, 0, 1], [3, 1, 0]])
        off = d[~np.eye(3, dtype=bool)]
        A = build_adjacency(d, r=0.0)
        assert A[0][1] == pytest.approx(math.exp(-1 / np.std(off) ** 2))

    def test_degenerate_spread_falls_back_to_unit_sigma(self):
        d = np.ones((3, 3)) - np.eye(3)
        A = build_adjacency(d, r=0.0)
        assert A[0][1] == pytest.approx(math.exp(-1))

    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = rng.integers(2, 12)
            d = np.abs(rng.standard_normal((n, n)))
            d = (d + d.T) / 2
            np.fill_diagonal(d, 0)
            r = float(rng.uniform(0, 0.9))
            A = build_adjacency(d, r=r)
            assert A.min() >= 0
            assert np.all(np.diag(A) == 0)
            nz = A[A > 0]
            assert nz.size == 0 or nz.min() >= r

    def test_tiny_distances_keep_their_graph(self):
        # ones with one pair at 2: sigma = 0.3, so exp(-1 / 0.09) < r and no
        # pair is an edge; squared as they are, 1e-200 distances would all be 0
        d = np.ones((5, 5)) - np.eye(5)
        d[0, 1] = d[1, 0] = 2.0
        for r in (0.5, 0.0):
            want = build_adjacency(d, r=r)
            for scale in (1e-200, 1e-300, 1e150, 3.0):
                got = build_adjacency(d * scale, r=r)
                assert np.array_equal(got > 0, want > 0), (r, scale)
                assert np.allclose(got, want, rtol=1e-12, atol=0), (r, scale)
        assert not build_adjacency(d * 1e-200, r=0.5).any()

    def test_asymmetric_distances_rejected(self):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2.5, 1, 0]])
        with pytest.raises(GraphStreamError, match="not symmetric"):
            build_adjacency(d, r=0.1)

    def test_errors(self):
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 3)), r=0.1)
        with pytest.raises(GraphStreamError):
            build_adjacency([[0, -1], [-1, 0]], r=0.1)
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 2)), r=1.0)
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 2)), r=-0.1)


class TestNormalizeAdjacency:
    def test_two_node_example(self):
        A_hat = normalize_adjacency([[0, 1], [1, 0]])
        assert np.allclose(A_hat, 0.5)

    def test_zero_graph_is_identity(self):
        assert np.array_equal(normalize_adjacency(np.zeros((4, 4))), np.eye(4))

    def test_symmetric_and_deterministic(self):
        rng = np.random.default_rng(1)
        A = np.abs(rng.standard_normal((6, 6)))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0)
        first = normalize_adjacency(A)
        second = normalize_adjacency(A)
        assert np.array_equal(first, second)
        assert np.allclose(first, first.T)


class TestScaledLaplacian:
    def test_two_node_example(self):
        L_t = scaled_laplacian([[0, 1], [1, 0]])
        assert np.allclose(L_t, [[0, -1], [-1, 0]], atol=1e-7)

    def test_zero_graph(self):
        assert np.allclose(scaled_laplacian(np.zeros((3, 3))), -np.eye(3))

    @staticmethod
    def random_graph(rng, n):
        A = np.abs(rng.standard_normal((n, n)))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0)
        return A

    def two_component_graph(self, rng):
        # two near-identical blocks: a nearly double top eigenvalue, which
        # an iterative estimate of lambda_max tends to undershoot
        m = int(rng.integers(2, 15))
        A = self.random_graph(rng, m)
        B = A * (1 + 1e-4 * rng.standard_normal((m, m)))
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m], out[m:, m:] = A, (B + B.T) / 2
        return out

    def test_spectral_radius_oracle(self):
        # dense eigensolver as the independent oracle
        rng = np.random.default_rng(3)
        graphs = [self.random_graph(rng, int(rng.integers(2, 20))) for _ in range(100)]
        graphs += [self.two_component_graph(rng) for _ in range(50)]
        for A in graphs:
            L_t = scaled_laplacian(A)
            assert np.allclose(L_t, L_t.T)
            eig = np.linalg.eigvalsh(L_t)
            assert np.abs(eig).max() <= 1 + 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphStreamError):
            scaled_laplacian([[0, 1], [0, 0]])

    def test_rejects_near_symmetric(self):
        # off-diagonals within allclose's tolerance would give a
        # non-symmetric L with eigenvalues above 1
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = self.random_graph(rng, int(rng.integers(3, 31)))
            A *= 1 + 5e-6 * rng.uniform(-1, 1, A.shape)
            with pytest.raises(GraphStreamError, match="exactly symmetric"):
                scaled_laplacian(A)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        A = np.ones((3, 3))
        A[0, 1] = A[1, 0] = value
        with pytest.raises(GraphStreamError, match="finite"):
            scaled_laplacian(A)

    @pytest.mark.parametrize("value", [1e308, 5e307])
    def test_rejects_overflowing_degree(self, value):
        A = np.full((3, 3), value)
        np.fill_diagonal(A, 0)
        with pytest.raises(GraphStreamError, match="degree of node 0"):
            scaled_laplacian(A)

    @pytest.mark.parametrize("degree", [0.999 * np.finfo(float).max / 2, 1e-310, 1e-320])
    def test_spectrum_at_the_ends_of_the_float_range(self, degree):
        # largest degree just below half the largest float, or subnormal
        rng = np.random.default_rng(9)
        for _ in range(30):
            A = self.random_graph(rng, int(rng.integers(2, 30)))
            A *= degree / A.sum(axis=1).max()
            eig = np.linalg.eigvalsh(scaled_laplacian(A))
            assert np.abs(eig).max() <= 1 + 1e-12


class TestChebPolynomials:
    def test_recursion(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((4, 4))
        L = (L + L.T) / 2
        mats = cheb_polynomials(L, 3)
        assert np.array_equal(mats[0], np.eye(4))
        assert np.array_equal(mats[1], L)
        assert np.allclose(mats[2], 2 * L @ L - np.eye(4))
        assert np.allclose(mats[3], 2 * L @ mats[2] - mats[1])


class TestDiffNodes:
    def test_growth(self):
        prev = make_graph(1, ["a", "b"])
        cur = make_graph(2, ["a", "b", "c"])
        assert diff_nodes(prev, cur) == ("c",)

    def test_identity(self):
        g = make_graph(1, ["a", "b"])
        assert diff_nodes(g, g) == ()

    def test_removal_rejected(self):
        with pytest.raises(ExpansionViolation):
            diff_nodes(make_graph(1, ["a", "b"]), make_graph(2, ["a", "c"]))

    def test_reordered_prefix_rejected_as_by_the_stream(self):
        # every old node persists, but not as a prefix: both refuse it alike
        prev, cur = make_graph(1, ["a", "b"]), make_graph(2, ["b", "a", "c"])
        message = "period 2 does not extend period 1 as a prefix"
        with pytest.raises(ExpansionViolation, match=message):
            diff_nodes(prev, cur)
        with pytest.raises(ExpansionViolation, match=message):
            StreamGraph(periods=(prev, cur))

    def test_new_nodes_inserted_before_old_ones_rejected(self):
        with pytest.raises(ExpansionViolation):
            diff_nodes(make_graph(1, ["a", "b"]), make_graph(2, ["c", "a", "b"]))

    def test_count_matches_growth(self):
        prev = make_graph(1, ["a", "b", "c"])
        cur = make_graph(2, ["a", "b", "c", "d", "e"])
        assert len(diff_nodes(prev, cur)) == cur.n - prev.n


class TestStreamGraph:
    def test_prefix_invariant_enforced(self):
        with pytest.raises(ExpansionViolation):
            StreamGraph(periods=(make_graph(1, ["a", "b"]),
                                 make_graph(2, ["b", "a", "c"])))

    def test_valid_stream(self):
        s = StreamGraph(periods=(make_graph(1, ["a"]), make_graph(2, ["a", "b"])))
        assert len(s.periods) == 2


class TestPeriodGraph:
    @pytest.mark.parametrize("ids", [["a", "b", "a"], ["a", "b", "c", "c"]])
    def test_duplicate_ids_rejected(self, ids):
        # with the prefix rule this makes the ids a period adds new and
        # distinct, so each prompt-pool row belongs to one node
        with pytest.raises(GraphStreamError, match="^duplicate node ids in period 2$"):
            make_graph(2, ids)

    @pytest.mark.parametrize("field", ["distances", "adjacency"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_names_the_period(self, field, bad):
        mats = {"distances": np.zeros((2, 2)), "adjacency": np.zeros((2, 2))}
        mats[field][0, 1] = bad
        with pytest.raises(GraphStreamError, match="period 4 has non-finite %s" % field):
            PeriodGraph(period_index=4, nodes=("a", "b"), **mats)


class TestReadDistances:
    def test_dense(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.5\n1.5,0\n")
        d = read_distances(path)
        assert d[0, 1] == 1.5

    def test_edge_list(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,2.0\na,c,1.0\nb,c,3.0\n")
        d = read_distances(path, node_ids=("a", "b", "c"))
        assert d[0, 1] == 2.0 and d[1, 0] == 2.0
        assert d[2, 1] == 3.0

    def test_edge_list_missing_pair(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,2.0\n")
        with pytest.raises(GraphStreamError):
            read_distances(path, node_ids=("a", "b", "c"))

    def test_edge_list_unknown_node(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,z,2.0\n")
        with pytest.raises(GraphStreamError):
            read_distances(path, node_ids=("a", "b"))

    def test_dense_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.5\nabc,0\n")
        with pytest.raises(GraphStreamError, match=r"d\.csv line 2: .*'abc'"):
            read_distances(path)

    def test_dense_asymmetric_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.5\n1.25,0\n")
        with pytest.raises(GraphStreamError, match=r"d\.csv is not symmetric"):
            read_distances(path)

    def test_dense_ragged_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.5,2\n1.5,0\n2,1,0\n")
        with pytest.raises(GraphStreamError, match=r"d\.csv line 2 has 2 fields, expected 3"):
            read_distances(path)

    def test_edge_list_non_numeric_distance_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,2.0\na,c,xx\nb,c,3.0\n")
        with pytest.raises(GraphStreamError, match=r"d\.csv line 2: .*'xx'"):
            read_distances(path, node_ids=("a", "b", "c"))

    @pytest.mark.parametrize("bad,count", [("a,c", 2), ("a,c,1.0,4", 4)])
    def test_edge_list_wrong_field_count_named(self, tmp_path, bad, count):
        path = tmp_path / "d.csv"
        path.write_text("a,b,2.0\n%s\nb,c,3.0\n" % bad)
        with pytest.raises(GraphStreamError, match=r"d\.csv line 2 has %d fields, expected 3" % count):
            read_distances(path, node_ids=("a", "b", "c"))
