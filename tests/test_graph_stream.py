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
        d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        A = build_adjacency(d, r=0.1, sigma_override=1)
        assert A[0][1] == pytest.approx(math.exp(-1))
        assert A[1][2] == pytest.approx(math.exp(-1))
        assert A[0][2] == 0.0  # exp(-4) ~ 0.0183 < 0.1

    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        d = np.abs(rng.standard_normal((5, 5)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0)
        A = build_adjacency(d, r=0.0)
        assert np.all(np.diag(A) == 0)

    def test_high_threshold_keeps_only_tiny_distances(self):
        # exp(-x) >= 0.99 iff x <= -ln(0.99)
        cut = -math.log(0.99)
        d = np.array([[0, math.sqrt(cut * 0.99), 1],
                      [math.sqrt(cut * 0.99), 0, 1],
                      [1, 1, 0]])
        A = build_adjacency(d, r=0.99, sigma_override=1)
        assert A[0][1] > 0
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

    def test_errors(self):
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 3)), r=0.1)
        with pytest.raises(GraphStreamError):
            build_adjacency([[0, -1], [-1, 0]], r=0.1)
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 2)), r=1.0)
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 2)), r=-0.1)
        with pytest.raises(GraphStreamError):
            build_adjacency(np.zeros((2, 2)), r=0.5, sigma_override=-1)


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
        new_ids, carry = diff_nodes(prev, cur)
        assert new_ids == ["c"]
        assert carry == {0: 0, 1: 1}

    def test_identity(self):
        g = make_graph(1, ["a", "b"])
        new_ids, carry = diff_nodes(g, g)
        assert new_ids == []
        assert len(carry) == 2

    def test_removal_rejected(self):
        with pytest.raises(ExpansionViolation):
            diff_nodes(make_graph(1, ["a", "b"]), make_graph(2, ["a", "c"]))

    def test_count_matches_growth(self):
        prev = make_graph(1, ["a", "b", "c"])
        cur = make_graph(2, ["a", "b", "c", "d", "e"])
        new_ids, _ = diff_nodes(prev, cur)
        assert len(new_ids) == cur.n - prev.n


class TestStreamGraph:
    def test_prefix_invariant_enforced(self):
        with pytest.raises(ExpansionViolation):
            StreamGraph(periods=(make_graph(1, ["a", "b"]),
                                 make_graph(2, ["b", "a", "c"])))

    def test_valid_stream(self):
        s = StreamGraph(periods=(make_graph(1, ["a"]), make_graph(2, ["a", "b"])))
        assert len(s.periods) == 2


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
