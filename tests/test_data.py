"""Data pipeline tests: file format, windowing, splits, normalization, synth."""

import struct
import tracemalloc

import numpy as np
import pytest

from trafficast.data import (
    DataError,
    DatasetSpec,
    Normalizer,
    SignalSeries,
    admissible_t0_range,
    build_samples,
    fit_apply_zscore,
    load_series,
    prepare_dataset,
    read_tensor_file,
    synth_generate,
    write_tensor_file,
)
from trafficast.training import stack_batch


# --- binary tensor container -------------------------------------------------

def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((100, 4, 1))
    p = tmp_path / "series.stgt"
    write_tensor_file(p, arr)
    back = read_tensor_file(p)
    np.testing.assert_array_equal(back, arr)
    assert back.shape == (100, 4, 1)


def test_tensor_file_header_layout(tmp_path):
    p = tmp_path / "t.stgt"
    write_tensor_file(p, np.zeros((2, 3)))
    raw = p.read_bytes()
    assert raw[:4] == b"STGT"
    assert raw[4] == 1 and raw[5] == 2
    assert struct.unpack("<2Q", raw[6:22]) == (2, 3)
    assert len(raw) == 22 + 6 * 8


def test_tensor_file_bad_magic(tmp_path):
    p = tmp_path / "t.stgt"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(DataError, match="byte offset 0"):
        read_tensor_file(p)


def test_tensor_file_bad_version(tmp_path):
    p = tmp_path / "t.stgt"
    p.write_bytes(b"STGT" + struct.pack("<BB", 9, 1) + struct.pack("<Q", 1) + bytes(8))
    with pytest.raises(DataError, match="byte offset 4"):
        read_tensor_file(p)


def test_tensor_file_zero_dim(tmp_path):
    p = tmp_path / "t.stgt"
    p.write_bytes(b"STGT" + struct.pack("<BB", 1, 2) + struct.pack("<2Q", 3, 0))
    with pytest.raises(DataError, match="byte offset 14"):
        read_tensor_file(p)


def test_tensor_file_truncated_payload(tmp_path):
    p = tmp_path / "t.stgt"
    # dims (2, 3) promise 48 payload bytes, supply 40
    p.write_bytes(b"STGT" + struct.pack("<BB", 1, 2) + struct.pack("<2Q", 2, 3) + bytes(40))
    with pytest.raises(DataError, match="expected 48 bytes.*got 40"):
        read_tensor_file(p)


def test_tensor_file_trailing_bytes(tmp_path):
    # dims (2, 3): 22 header bytes and 48 payload bytes end at offset 70
    p = tmp_path / "t.stgt"
    p.write_bytes(b"STGT" + struct.pack("<BB", 1, 2) + struct.pack("<2Q", 2, 3) + bytes(56))
    with pytest.raises(DataError, match=r"t\.stgt: 8 trailing bytes at byte offset 70$"):
        read_tensor_file(p)


def test_load_series_shape_and_cadence(tmp_path):
    p = tmp_path / "s.stgt"
    write_tensor_file(p, np.arange(400, dtype=float).reshape(100, 4, 1))
    s = load_series(p, l_d=20)
    assert (s.n_steps, s.n_nodes, s.n_channels) == (100, 4, 1)
    assert s.samples_per_week == 140


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_series_rejects_non_finite_value(tmp_path, bad):
    p = tmp_path / "s.stgt"
    data = np.arange(400, dtype=float).reshape(100, 4, 1)
    data[37, 2, 0] = bad
    data[90, 1, 0] = bad
    write_tensor_file(p, data)
    with pytest.raises(DataError, match=r"s\.stgt: non-finite value .*\[37, 2, 0\]"):
        load_series(p, l_d=20)


def test_pems_style_cadence_accepted():
    # 12 samples/hour -> 288/day, 2016/week
    s = SignalSeries(np.zeros((3000, 2, 1)), samples_per_day=288)
    assert s.samples_per_week == 2016


# --- dataset spec ------------------------------------------------------------

def test_spec_l_derived():
    spec = DatasetSpec(P=12, Q=12, S=3)
    assert spec.L == 15
    assert spec.block_len == 27


def test_spec_split_must_sum_to_one():
    with pytest.raises(DataError, match="sum to 1"):
        DatasetSpec(split=(0.5, 0.2, 0.2))


# --- sample assembly ---------------------------------------------------------

def _toy_series(t=400, n=3, l_d=40):
    # value encodes (t, node) so reconstruction checks are unambiguous
    data = (
        np.arange(t)[:, None, None] * 1000.0
        + np.arange(n)[None, :, None]
    )
    return SignalSeries(data, samples_per_day=l_d)


def test_first_admissible_t0():
    spec = DatasetSpec(P=12, Q=12, S=3)
    series = SignalSeries(np.zeros((2100, 2, 1)), 288)
    t0s = admissible_t0_range(series, spec)
    assert t0s[0] == 2016 + 12 == 2028


def test_sample_index_reconstruction():
    # every sample, every block: slicing the source with the documented
    # formulas must reproduce the stored arrays bitwise
    series = _toy_series()
    spec = DatasetSpec(P=5, Q=4, S=2, split=(0.6, 0.2, 0.2))
    l_d, l_w = series.samples_per_day, series.samples_per_week
    train, val, test = build_samples(series, spec)
    for sample in train + val + test:
        t0 = sample.t0
        np.testing.assert_array_equal(sample.r, series.data[t0 - 5 : t0])
        np.testing.assert_array_equal(sample.y, series.data[t0 : t0 + 4])
        assert sample.d.shape == (1, spec.block_len, 3, 1)
        assert sample.w.shape == (1, spec.block_len, 3, 1)
        np.testing.assert_array_equal(
            sample.d[0], series.data[t0 - 5 - l_d : t0 + spec.L - l_d]
        )
        np.testing.assert_array_equal(
            sample.w[0], series.data[t0 - 5 - l_w : t0 + spec.L - l_w]
        )


def test_multi_block_ordering_most_distant_first():
    series = _toy_series(t=1000, l_d=60)
    spec = DatasetSpec(P=4, Q=3, S=1, d_count=2, w_count=1)
    train, _, _ = build_samples(series, spec)
    s = train[0]
    l_d = 60
    # position 0 holds the 2-days-back block, position 1 the 1-day-back block
    np.testing.assert_array_equal(
        s.d[0], series.data[s.t0 - 4 - 2 * l_d : s.t0 + spec.L - 2 * l_d]
    )
    np.testing.assert_array_equal(
        s.d[1], series.data[s.t0 - 4 - l_d : s.t0 + spec.L - l_d]
    )


def test_day_blocks_farther_back_than_week_blocks_stay_in_the_series():
    # 8 days back reach farther than 1 week: the first t0 must leave room
    # for the oldest D block, or its rows would index before row 0 and
    # wrap to the end of the series
    series = _toy_series(t=500, l_d=40)
    spec = DatasetSpec(P=5, Q=4, S=2, d_count=8, w_count=1)
    assert admissible_t0_range(series, spec)[0] == 8 * 40 + 5
    train, val, test = build_samples(series, spec)
    for sample in train + val + test:
        for i, block in zip(range(8, 0, -1), sample.d):
            start = sample.t0 - 5 - i * 40
            assert start >= 0
            np.testing.assert_array_equal(
                block, series.data[start : sample.t0 + spec.L - i * 40])
    with pytest.raises(DataError, match=r"need at least 329 steps"):
        build_samples(_toy_series(t=328, l_d=40), spec)


def test_inputs_strictly_before_target():
    series = _toy_series()
    spec = DatasetSpec(P=5, Q=4, S=2)
    train, _, _ = build_samples(series, spec)
    l_d = series.samples_per_day
    for s in train[:10]:
        assert s.t0 - 1 == s.t0 - 5 + 4  # last R row index
        # newest D row sits L-1 steps past the aligned prior-day time,
        # still strictly before t0 because l_d > L
        newest_d_index = s.t0 + spec.L - 1 - l_d
        assert newest_d_index < s.t0


def test_leakage_guard_rejects_short_day():
    series = _toy_series(t=400, l_d=10)  # l_d=10 <= L=15
    spec = DatasetSpec(P=5, Q=12, S=3)
    with pytest.raises(DataError, match="exceed L"):
        build_samples(series, spec)


def test_series_too_short_names_minimum():
    series = _toy_series(t=60, l_d=20)  # l_w=140 > 60
    spec = DatasetSpec(P=12, Q=4, S=2)
    with pytest.raises(DataError, match="156"):
        build_samples(series, spec)  # 1*140 + 12 + 4


def test_chronological_split_ordering():
    series = _toy_series()
    spec = DatasetSpec(P=5, Q=4, S=2)
    train, val, test = build_samples(series, spec)
    assert train and val and test
    assert max(s.t0 for s in train) < min(s.t0 for s in val)
    assert max(s.t0 for s in val) < min(s.t0 for s in test)
    n = len(train) + len(val) + len(test)
    assert len(train) == int(n * 0.6)
    assert len(val) == int(n * 0.2)


def test_samples_keep_one_series_not_their_windows():
    # every sample is a t0 into one shared copy of the normalized series:
    # the splits keep about one series plus a small object per sample. A
    # sample holding its own windows kept 78 rows of N*C floats at the
    # default windows, 12,480 bytes here.
    series, _ = synth_generate(n_nodes=10, days=60, l_d=48, shift_max=1, noise=0.5, seed=3)
    series = SignalSeries(np.repeat(series.data, 2, axis=2), 48)  # C = 2
    spec = DatasetSpec()
    tracemalloc.start()
    try:
        splits = prepare_dataset(series, spec)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n_samples = len(splits.train) + len(splits.val) + len(splits.test)
    assert n_samples > 2000
    assert kept < 2 * series.data.nbytes + 256 * n_samples


def test_prepare_dataset_makes_one_normalized_series():
    # the series is normalized in one new array, which the samples keep:
    # no series-sized temporary and no second copy, so the peak stays near
    # one series (about 1.1 here) plus the samples. A temporary for the
    # division and a copy for the samples peaked at 2.1 series.
    series, _ = synth_generate(n_nodes=100, days=60, l_d=48, shift_max=1, noise=0.5, seed=3)
    tracemalloc.start()
    try:
        splits = prepare_dataset(series, DatasetSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_samples = len(splits.train) + len(splits.val) + len(splits.test)
    assert n_samples > 2000
    assert peak < 1.25 * series.data.nbytes + 256 * n_samples
    assert splits.train[0].windows.data is not series.data


def test_stack_batch_is_stacked_sample_windows():
    # one gather per window gives bitwise the stack of each sample's
    # windows, in the batch's order, with several blocks and channels
    series = _toy_series(t=1000, n=3, l_d=30)
    series = SignalSeries(np.concatenate([series.data, -series.data], axis=2), 30)
    spec = DatasetSpec(P=5, Q=4, S=2, d_count=2, w_count=3)
    train, val, _ = build_samples(series, spec)
    order = np.random.default_rng(2).permutation(len(train))[:16]
    batch = [train[i] for i in order] + val[:3]
    for window, stacked in zip("rdwy", stack_batch(batch)):
        expected = np.stack([getattr(s, window) for s in batch])
        assert stacked.shape == expected.shape and stacked.dtype == expected.dtype
        assert stacked.tobytes() == expected.tobytes()
    assert stack_batch(batch)[1].shape == (19, 2, spec.block_len, 3, 2)


def test_sample_windows_are_read_only():
    series = _toy_series()
    spec = DatasetSpec(P=5, Q=4, S=2)
    train, _, test = build_samples(series, spec)
    before = [(s.r, s.d, s.w, s.y) for s in (train[0], test[-1])]
    series.data[:] = -1.0  # the caller's array, written after the cut
    for s, arrays in zip((train[0], test[-1]), before):
        for window, array in zip("rdwy", arrays):
            np.testing.assert_array_equal(getattr(s, window), array)
            assert not getattr(s, window).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        train[0].r[0] = 0.0


def test_stack_batch_rejects_samples_of_two_series():
    spec = DatasetSpec(P=5, Q=4, S=2)
    first, _, _ = build_samples(_toy_series(), spec)
    second, _, _ = build_samples(_toy_series(), spec)
    with pytest.raises(DataError, match="mixes samples of different build_samples calls"):
        stack_batch([first[0], second[1]])


# --- normalization -----------------------------------------------------------

def test_zscore_two_point_example():
    # train values {1, 3}: mean 2, population std 1 -> normalized {-1, +1}
    data = np.array([1.0, 3.0, 5.0])[:, None, None]
    series = SignalSeries(data, 1)
    norm, out = fit_apply_zscore(series, range(0, 2))
    assert norm.mean[0] == pytest.approx(2.0)
    assert norm.std[0] == pytest.approx(1.0)
    np.testing.assert_allclose(out.data[:2, 0, 0], [-1.0, 1.0])


def test_zscore_constant_channel_floored():
    data = np.full((10, 2, 1), 5.0)
    series = SignalSeries(data, 1)
    with pytest.warns(UserWarning, match="floored"):
        norm, out = fit_apply_zscore(series, range(0, 10))
    np.testing.assert_array_equal(out.data, 0.0)
    np.testing.assert_allclose(norm.inverse(out.data), 5.0)


def test_zscore_rejects_empty_or_outside_range():
    series = SignalSeries(np.ones((10, 2, 1)), 1)
    with pytest.raises(DataError, match="empty"):
        fit_apply_zscore(series, range(0, 0))
    with pytest.raises(DataError, match="leaves the series"):
        fit_apply_zscore(series, range(0, 11))


def test_zscore_round_trip():
    rng = np.random.default_rng(9)
    data = rng.uniform(-50, 50, size=(64, 3, 2))
    series = SignalSeries(data, 8)
    norm, out = fit_apply_zscore(series, range(0, 40))
    np.testing.assert_allclose(norm.inverse(out.data), data, atol=1e-12)


def test_prepare_dataset_train_only_statistics():
    series, _ = synth_generate(n_nodes=3, days=30, l_d=24, shift_max=1, noise=0.5, seed=4)
    spec = DatasetSpec(P=6, Q=4, S=2)
    splits = prepare_dataset(series, spec)
    first_val_t0 = splits.val[0].t0
    train_slice = series.data[:first_val_t0]
    np.testing.assert_allclose(splits.normalizer.mean, train_slice.mean(axis=(0, 1)))
    np.testing.assert_allclose(splits.normalizer.std, train_slice.std(axis=(0, 1)))


# --- synthetic generator -----------------------------------------------------

def test_synth_daily_periodicity_exact():
    series, _ = synth_generate(n_nodes=2, days=9, l_d=48, shift_max=0, noise=0.0, seed=5)
    x = series.data
    assert np.abs(x[48:] - x[:-48]).max() < 1e-9


def test_synth_weekly_term_periodicity():
    series, _ = synth_generate(
        n_nodes=2, days=15, l_d=24, shift_max=0, noise=0.0, seed=5, amp_weekly=3.0
    )
    x = series.data
    l_w = 7 * 24
    assert np.abs(x[l_w:] - x[:-l_w]).max() < 1e-9
    # and the weekly term genuinely breaks pure daily periodicity
    assert np.abs(x[24:] - x[:-24]).max() > 0.1


def test_synth_deterministic():
    a, ga = synth_generate(4, 10, 36, 2, 1.0, seed=77)
    b, gb = synth_generate(4, 10, 36, 2, 1.0, seed=77)
    np.testing.assert_array_equal(a.data, b.data)
    assert ga.edges == gb.edges
    c, _ = synth_generate(4, 10, 36, 2, 1.0, seed=78)
    assert not np.array_equal(a.data, c.data)


def test_synth_ring_graph():
    _, graph = synth_generate(5, 8, 24, 0, 0.0, seed=1)
    assert graph.n_nodes == 5
    assert graph.sigma == 1.0
    assert len(graph.edges) == 5
    assert all(d == 1.0 for _, _, d in graph.edges)
    assert (0, 1, 1.0) in graph.edges and (4, 0, 1.0) in graph.edges


def _xcorr(a, b, lags):
    a = a - a.mean()
    b = b - b.mean()
    out = []
    for lag in lags:
        if lag >= 0:
            out.append(np.dot(a[: len(a) - lag], b[lag:]))
        else:
            out.append(np.dot(a[-lag:], b[: len(b) + lag]))
    return np.array(out)


def test_synth_shift_bounded_by_cross_correlation():
    # day-over-day correlation peaks: each adjacent pair within 2*shift_max,
    # the average across pairs within shift_max of the exact day lag
    shift_max, l_d = 3, 48
    series, _ = synth_generate(n_nodes=4, days=20, l_d=l_d, shift_max=shift_max, noise=0.0, seed=123)
    lags = np.arange(-2 * shift_max - 2, 2 * shift_max + 3)
    for node in range(4):
        x = series.data[:, node, 0]
        acc = np.zeros(len(lags))
        for k in range(19):
            a = x[k * l_d : (k + 1) * l_d]
            b = x[(k + 1) * l_d : (k + 2) * l_d]
            c = _xcorr(a, b, lags)
            assert abs(lags[np.argmax(c)]) <= 2 * shift_max
            acc += c
        assert abs(lags[np.argmax(acc)]) <= shift_max


def test_synth_rejects_negative_params():
    with pytest.raises(DataError):
        synth_generate(2, 5, 24, shift_max=-1, noise=0.0, seed=0)
    with pytest.raises(DataError):
        synth_generate(2, 5, 24, shift_max=0, noise=-0.5, seed=0)
