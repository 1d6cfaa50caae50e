import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from growcast import data_pipeline as dp
from growcast.data_pipeline import (
    DataError,
    Normalizer,
    ObservationSeries,
    Windows,
    build_period_dataset,
    chrono_split,
    few_shot_subsample,
    ingest_period,
    make_windows,
    synth_stream,
)
from growcast.graph_stream import PeriodGraph


def series_of(T, n=2, tau=1):
    vals = np.arange(T * n, dtype=float).reshape(T, n)
    return ObservationSeries(values=vals, period_index=tau)


def windows_of(count):
    """`count` one-node windows; window i starts with the value i."""
    return make_windows(np.arange(count + 23, dtype=float).reshape(-1, 1))


def starts(windows):
    return windows.X[:, 0, 0].tolist()


def graph_of(ids):
    n = len(ids)
    return PeriodGraph(period_index=1, nodes=tuple(ids),
                       distances=np.zeros((n, n)), adjacency=np.zeros((n, n)))


class TestIngest:
    def test_column_reorder(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,b,a\n0,10,1\n1,20,2\n")
        out = ingest_period(path, graph_of(["a", "b"]))
        assert np.array_equal(out.values, [[1, 10], [2, 20]])

    def test_values_stored_row_major(self, tmp_path):
        # reordering columns yields a column-major array; the series stores it row-major
        path = tmp_path / "obs.csv"
        path.write_text("time,c,b,a\n0,3,2,1\n1,6,5,4\n2,9,8,7\n")
        out = ingest_period(path, graph_of(["a", "b", "c"]))
        assert out.values.flags.c_contiguous
        assert np.array_equal(out.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        values = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        series = ObservationSeries(values=values, period_index=1)
        assert series.values.flags.c_contiguous
        assert np.array_equal(series.values, values)

    def test_forward_fill(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a\n0,5\n1,\n2,7\n")
        out = ingest_period(path, graph_of(["a"]))
        assert out.values[1, 0] == 5.0

    def test_leading_gap_column_mean(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a\n0,\n1,4\n2,8\n")
        out = ingest_period(path, graph_of(["a"]))
        assert out.values[0, 0] == pytest.approx(6.0)

    def test_missing_graph_node_named(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a\n0,1\n")
        with pytest.raises(DataError, match="c"):
            ingest_period(path, graph_of(["a", "c"]))

    def test_unknown_header_id(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a,z\n0,1,2\n")
        with pytest.raises(DataError, match="z"):
            ingest_period(path, graph_of(["a"]))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a\n0,oops\n")
        with pytest.raises(DataError, match="oops"):
            ingest_period(path, graph_of(["a"]))

    def test_duplicated_header_id_named(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a,a\n0,1,100\n1,2,200\n")
        with pytest.raises(DataError, match="duplicated.*'a'"):
            ingest_period(path, graph_of(["a"]))

    def test_header_only_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a,b\n")
        series = ingest_period(path, graph_of(["a", "b"]))
        assert series.values.shape == (0, 2)
        with pytest.raises(DataError, match="train segment of 0 steps"):
            chrono_split(series)

    def test_all_blank_column_named(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("time,a,b\n0,1,\n1,2,\n")
        with pytest.raises(DataError, match="column 1 has no observed values"):
            ingest_period(path, graph_of(["a", "b"]))


def loop_impute(values):
    """Reference forward-fill: one pass per column, then the column mean of
    the filled values for leading gaps."""
    out = values.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        last = np.nan
        for i in range(col.size):
            if np.isnan(col[i]):
                col[i] = last
            else:
                last = col[i]
        if np.isnan(col).any():
            finite = col[~np.isnan(col)]
            if finite.size == 0:
                raise DataError("column %d has no observed values" % j)
            col[np.isnan(col)] = finite.mean()
    return out


class TestImpute:
    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            T, n = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            values = rng.standard_normal((T, n)) * 10 ** rng.uniform(-3, 3)
            values[rng.random((T, n)) < rng.uniform(0, 0.9)] = np.nan
            lead = rng.integers(0, T + 1, size=n)  # leading gaps of any length
            for j in range(n):
                values[:lead[j], j] = np.nan
            values[:, rng.integers(n)] = rng.standard_normal(T)  # a fully observed column
            if trial % 10 == 0:
                values[:, rng.integers(n)] = np.nan  # an all-blank column
            try:
                want = loop_impute(values)
            except DataError as exc:
                with pytest.raises(DataError) as got:
                    dp._impute(values)
                assert str(got.value) == str(exc)
                continue
            got = dp._impute(values)
            assert got.tobytes() == want.tobytes()
            assert not np.isnan(got).any()

    def test_input_untouched(self):
        values = np.array([[np.nan, 1.0], [2.0, np.nan]])
        before = values.tobytes()
        dp._impute(values)
        assert values.tobytes() == before

    def test_single_row(self):
        assert np.array_equal(dp._impute(np.array([[3.0, 4.0]])), [[3.0, 4.0]])
        with pytest.raises(DataError, match="column 1 has no observed values"):
            dp._impute(np.array([[3.0, np.nan]]))


class TestChronoSplit:
    def test_even_split(self):
        segs = chrono_split(series_of(200))
        assert [s.shape[0] for s in segs] == [120, 40, 40]

    def test_floor_split(self):
        segs = chrono_split(series_of(201))
        assert [s.shape[0] for s in segs] == [120, 40, 41]

    def test_infeasible_segment(self):
        with pytest.raises(DataError, match="val"):
            chrono_split(series_of(70))

    def test_shortest_timeline_holds_one_window_per_split(self):
        # each split needs T_IN + T_OUT = 24 steps: 118 gives 70/24/24
        assert [s.shape[0] for s in chrono_split(series_of(118))] == [70, 24, 24]
        with pytest.raises(DataError, match="val segment of 23 steps cannot hold a 24-step"):
            chrono_split(series_of(117))

    def test_no_window_crosses_boundary(self):
        series = series_of(200)  # every value occurs once
        for seg in chrono_split(series):
            ws = make_windows(seg)
            assert len(ws) == seg.shape[0] - 23
            for x, y in zip(ws.X, ws.Y):
                start = np.flatnonzero(seg[:, 0] == x[0, 0])
                assert start.size == 1
                s = int(start[0])
                assert np.array_equal(np.concatenate([x, y]), seg[s:s + 24])


class TestMakeWindows:
    def test_counts(self):
        seg = np.zeros((36, 2))
        assert len(make_windows(seg)) == 13
        assert len(make_windows(np.zeros((24, 2)))) == 1
        with pytest.raises(DataError):
            make_windows(np.zeros((23, 2)))

    def test_count_formula_exhaustive(self):
        for T_s in range(24, 101):
            assert len(make_windows(np.zeros((T_s, 1)))) == T_s - 23

    def test_window_contiguity(self):
        seg = np.arange(40, dtype=float).reshape(40, 1)
        ws = make_windows(seg)
        assert ws.X.shape == (17, 12, 1) and ws.Y.shape == (17, 12, 1)
        assert np.array_equal(ws.Y[:, 0, 0], ws.X[:, -1, 0] + 1)
        assert starts(ws) == list(range(17))

    def test_windows_are_read_only_views(self):
        seg = np.arange(60, dtype=float).reshape(30, 2)
        ws = make_windows(seg)
        assert np.shares_memory(ws.X, seg) and np.shares_memory(ws.Y, seg)
        with pytest.raises(ValueError):
            ws.X[0, 0, 0] = 1.0

    @pytest.mark.parametrize("columns", [5, 7])
    def test_dataset_rejects_a_series_of_another_graph(self, columns):
        # the series holds no node ids: its column count must be the graph's
        stream, _ = synth_stream(6, 0, 1, 200, seed=3)
        series = ObservationSeries(values=np.zeros((200, columns)), period_index=1)
        with pytest.raises(DataError, match="^period 1 has %d observation columns for 6 graph "
                                            "nodes$" % columns):
            build_period_dataset(stream.periods[0], series)

    @pytest.mark.parametrize("zero_train, row, reading, message", [
        (False, 5, 1e200, "training observations span 1e.200, whose square overflows$"),
        (True, 190, 1e303, "test observations overflow once normalized")])
    def test_data_errors_name_the_graph_period(self, zero_train, row, reading, message):
        # the series claims period 7; every error names the graph's period 2
        stream, series = synth_stream(6, 2, 2, 200, seed=1)
        values = series[1].values.copy()
        if zero_train:
            values[:120] = 0.0  # the train segment; its std clamps to 1e-8
        values[row, 3] = reading
        with pytest.raises(DataError, match="^period 2 " + message):
            build_period_dataset(stream.periods[1], ObservationSeries(values, period_index=7))

    @pytest.mark.parametrize("shape", [(12,), (3, 4, 2)])
    def test_series_must_be_a_matrix(self, shape):
        with pytest.raises(DataError, match="^period 2 observations must be a T x n matrix"):
            ObservationSeries(values=np.zeros(shape), period_index=2)

    def test_dataset_windows_share_one_segment(self):
        stream, series = synth_stream(6, 0, 1, 200, seed=3)
        ds = build_period_dataset(stream.periods[0], series[0])
        train_steps = chrono_split(series[0])[0].shape[0]
        for ws in (ds.train, ds.val, ds.test):
            assert np.shares_memory(ws.X, ws.Y)
        # train.X and train.Y together span exactly one normalized (T_s, n)
        # segment, so no dense (N, 12, n) copy exists
        (x_lo, x_hi), (y_lo, y_hi) = (byte_bounds(ds.train.X), byte_bounds(ds.train.Y))
        lo, hi = min(x_lo, y_lo), max(x_hi, y_hi)
        assert hi - lo == train_steps * 6 * 8
        assert len(ds.train) == train_steps - 23


class TestNormalizer:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            seg = rng.standard_normal((50, 3)) * 10 + 5
            norm = Normalizer.fit(seg, 1)
            x = rng.standard_normal((8, 3))
            back = norm.invert(norm.apply(x))
            assert np.abs(back - x).max() <= 1e-9 * (1 + np.abs(x).max())

    def test_constant_series_clamped(self):
        norm = Normalizer.fit(np.full((10, 2), 5.0), 1)
        assert norm.mean == 5.0
        assert norm.std == 1e-8
        assert norm.apply(5.0) == 0.0

    def test_mean_maps_to_zero(self):
        norm = Normalizer.fit(np.arange(12.0).reshape(6, 2), 1)
        assert norm.apply(norm.mean) == pytest.approx(0.0)

    def test_ordinary_data_fit_the_unscaled_moments_bit_for_bit(self):
        # dividing by a power of two and scaling back is exact
        rng = np.random.default_rng(21)
        for seg in (rng.standard_normal((480, 50)), rng.standard_normal((96, 7)) * 3e4 - 17,
                    rng.uniform(0.0, 1e-3, (200, 3))):
            norm = Normalizer.fit(seg, 1)
            assert (norm.mean, norm.std) == (float(seg.mean()), float(seg.std()))

    def test_large_constant_segment_fits(self):
        # the summed mean rounds to 1.0000000000000002e300; the unscaled std
        # squared that 2e284 residue into inf
        norm = Normalizer.fit(np.full((112, 6), 1e300), 1)
        assert norm.mean == pytest.approx(1e300, rel=1e-15)
        assert norm.std == pytest.approx(1.487e284, rel=1e-3)

    def test_a_range_that_squares_past_the_float_range_is_rejected(self):
        seg = np.ones((40, 3))
        seg[5, 1] = 1e200
        with pytest.raises(DataError, match="^period 4 training observations span 1e.200, "
                                            "whose square overflows$"):
            Normalizer.fit(seg, 4)


class TestFewShot:
    def test_prefix(self):
        sub = few_shot_subsample(windows_of(50), 0.2)
        assert isinstance(sub, Windows)
        assert starts(sub) == list(range(10))
        assert np.array_equal(sub.Y, windows_of(50).Y[:10])

    def test_identity(self):
        train = windows_of(7)
        sub = few_shot_subsample(train, 1.0)
        assert np.array_equal(sub.X, train.X) and np.array_equal(sub.Y, train.Y)

    def test_empty_result_rejected(self):
        with pytest.raises(DataError):
            few_shot_subsample(windows_of(3), 0.2)

    def test_fraction_range(self):
        with pytest.raises(DataError):
            few_shot_subsample(windows_of(1), 0.0)
        with pytest.raises(DataError):
            few_shot_subsample(windows_of(1), 1.5)

    def test_random_policy_seeded(self):
        train = windows_of(40)
        a = few_shot_subsample(train, 0.25, seed=3, random_policy=True)
        b = few_shot_subsample(train, 0.25, seed=3, random_policy=True)
        assert starts(a) == starts(b)
        assert len(a) == 10
        assert starts(a) == sorted(set(starts(a)))
        # each kept target still follows its own input
        assert np.array_equal(a.Y[:, 0, 0], a.X[:, -1, 0] + 1)


class TestSynthStream:
    def test_deterministic(self):
        s1, obs1 = synth_stream(5, 2, 2, 60, seed=9)
        s2, obs2 = synth_stream(5, 2, 2, 60, seed=9)
        for a, b in zip(obs1, obs2):
            assert a.values.tobytes() == b.values.tobytes()
        for g1, g2 in zip(s1.periods, s2.periods):
            assert g1.adjacency.tobytes() == g2.adjacency.tobytes()

    def test_growth_counts(self):
        stream, _ = synth_stream(40, 10, 3, 60, seed=0)
        assert [g.n for g in stream.periods] == [40, 50, 60]

    def test_identical_locations_identical_series(self, monkeypatch):
        # no noise, no offsets: series depend only on position
        stream, obs = synth_stream(4, 1, 1, 50, seed=2, noise=0.0, offset_scale=0.0)
        vals = obs[0].values
        # diurnal part is shared; with zero diffusion weight differences the
        # only node-to-node variation comes from the graph; check the base
        monkeypatch.setattr(dp, "DIFFUSION", 0.0)
        stream2, obs2 = synth_stream(4, 1, 1, 50, seed=2, noise=0.0, offset_scale=0.0)
        cols = obs2[0].values
        assert np.allclose(cols - cols[:, :1], 0.0)

    def test_earlier_nodes_stable_under_growth(self, monkeypatch):
        # node positions/offsets/noise draw from per-node streams
        monkeypatch.setattr(dp, "DIFFUSION", 0.0)
        _, obs_small = synth_stream(5, 0, 1, 40, seed=4)
        _, obs_large = synth_stream(8, 0, 1, 40, seed=4)
        assert np.allclose(obs_small[0].values, obs_large[0].values[:, :5])


class TestStreamFiles:
    def test_write_then_load_round_trip(self, tmp_path):
        stream, series = synth_stream(6, 2, 2, 80, seed=5)
        manifest = dp.write_stream(tmp_path / "stream", stream, series, r=0.5)
        loaded_stream, loaded_series = dp.load_stream_manifest(manifest)
        assert [g.n for g in loaded_stream.periods] == [g.n for g in stream.periods]
        for a, b in zip(series, loaded_series):
            assert np.allclose(a.values, b.values)
        for a, b in zip(stream.periods, loaded_stream.periods):
            assert np.allclose(a.adjacency, b.adjacency)

    def test_manifest_missing_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"periods": [{"nodes": "x"}]}')
        with pytest.raises(DataError, match="distances"):
            dp.load_stream_manifest(path)
