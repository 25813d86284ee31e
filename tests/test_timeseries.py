import numpy as np
import pytest

from rcbasin.errors import DimensionMismatchError, ZeroRangeError
from rcbasin.timeseries import (
    Standardizer,
    TimeSeries,
    add_training_noise,
    component_rms,
    fit_standardizer,
    read_csv,
    write_csv,
)


def series(values, dt=0.1):
    return TimeSeries(np.asarray(values, dtype=float), dt)


class TestTimeSeries:
    def test_one_dim_input_becomes_column(self):
        ts = series([1.0, 2.0, 3.0])
        assert ts.values.shape == (3, 1)
        assert ts.n_samples == 3 and ts.n_components == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((3, 1)), dt=0.0)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            TimeSeries(np.zeros((0, 2)), dt=0.1)

    def test_values_immutable(self):
        ts = series([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_times(self):
        ts = TimeSeries(np.zeros((4, 1)), dt=0.5, t0=1.0)
        assert np.allclose(ts.times, [1.0, 1.5, 2.0, 2.5])

    def test_observe_and_prefix(self):
        ts = TimeSeries(np.arange(8.0).reshape(4, 2), dt=0.1)
        assert ts.observe([1]).values[:, 0] == pytest.approx([1.0, 3.0, 5.0, 7.0])
        assert ts.prefix(2).n_samples == 2


class TestFitStandardizer:
    def test_single_signal_symmetric(self):
        # values [-2, 0, 2] force shift 0, scale 2
        st = fit_standardizer([series([-2.0, 0.0, 2.0])])
        assert st.shift[0] == pytest.approx(0.0)
        assert st.scale[0] == pytest.approx(2.0)
        out = st.apply(series([-2.0, 0.0, 2.0]))
        assert out.values[:, 0] == pytest.approx([-1.0, 0.0, 1.0])

    def test_two_signal_union(self):
        # union of [0, 2] and [0, 4]: mean 1.5, max abs deviation 2.5
        a, b = series([0.0, 2.0]), series([0.0, 4.0])
        st = fit_standardizer([a, b])
        assert st.shift[0] == pytest.approx(1.5)
        assert st.scale[0] == pytest.approx(2.5)
        assert st.apply(a).values[:, 0] == pytest.approx([-0.6, 0.2])
        assert st.apply(b).values[:, 0] == pytest.approx([-0.6, 1.0])

    def test_constant_component_rejected(self):
        with pytest.raises(ZeroRangeError):
            fit_standardizer([series([5.0, 5.0, 5.0])])

    def test_union_statistics_after_apply(self):
        rng = np.random.default_rng(3)
        signals = [TimeSeries(rng.normal(2.0, 5.0, size=(40, 3)), 0.1) for _ in range(4)]
        st = fit_standardizer(signals)
        union = np.concatenate([st.apply(s).values for s in signals])
        assert np.abs(union.mean(axis=0)).max() < 1e-12
        assert np.abs(np.abs(union).max(axis=0) - 1.0).max() < 1e-12

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        signals = [TimeSeries(rng.uniform(-3, 9, size=(25, 2)), 0.1)]
        st = fit_standardizer(signals)
        probe = TimeSeries(rng.uniform(-100, 100, size=(50, 2)), 0.1)
        back = st.invert_values(st.apply(probe).values)
        assert np.abs(back - probe.values).max() <= 1e-12 * st.scale.max()

    def test_identity_standardizer(self):
        st = Standardizer.identity(2)
        probe = TimeSeries(np.array([[3.0, -4.0]]), 0.1)
        assert np.array_equal(st.apply(probe).values, probe.values)

    def test_zero_scale_rejected_directly(self):
        with pytest.raises(ZeroRangeError):
            Standardizer(np.zeros(1), np.zeros(1))


class TestComponentRms:
    def test_constant(self):
        assert component_rms([series([3.0, 3.0, 3.0])], 0) == pytest.approx(3.0)

    def test_two_values(self):
        assert component_rms([series([3.0, 4.0])], 0) == pytest.approx(np.sqrt(12.5))

    def test_zeros(self):
        assert component_rms([series([0.0, 0.0])], 0) == 0.0

    def test_pooled_over_signals(self):
        val = component_rms([series([1.0]), series([2.0, 2.0, 2.0])], 0)
        assert val == pytest.approx(np.sqrt((1.0 + 3 * 4.0) / 4))

    def test_bad_component(self):
        with pytest.raises(DimensionMismatchError):
            component_rms([series([1.0])], 1)


class TestAddTrainingNoise:
    def test_zero_eta_identical(self):
        ts = series([1.0, -2.0, 3.0])
        out = add_training_noise(ts, 0.0, np.array([1.0]), np.random.default_rng(0))
        assert np.array_equal(out.values, ts.values)

    def test_zero_rms_component_unchanged(self):
        ts = TimeSeries(np.ones((100, 2)), 0.1)
        out = add_training_noise(ts, 0.5, np.array([0.0, 1.0]), np.random.default_rng(0))
        assert np.array_equal(out.values[:, 0], ts.values[:, 0])
        assert not np.array_equal(out.values[:, 1], ts.values[:, 1])

    def test_empirical_std(self):
        # eta 1e-3 times unit rms over 1e5 samples: std within 5 percent
        ts = TimeSeries(np.zeros((100_000, 1)), 0.1)
        out = add_training_noise(ts, 1e-3, np.array([1.0]), np.random.default_rng(11))
        assert np.std(out.values - ts.values) == pytest.approx(1e-3, rel=0.05)

    def test_same_seed_bit_identical(self):
        ts = TimeSeries(np.linspace(0, 1, 64)[:, None], 0.1)
        a = add_training_noise(ts, 1e-2, np.array([2.0]), np.random.default_rng(42))
        b = add_training_noise(ts, 1e-2, np.array([2.0]), np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_source_unmodified(self):
        ts = series([1.0, 2.0])
        before = ts.values.copy()
        add_training_noise(ts, 1.0, np.array([1.0]), np.random.default_rng(0))
        assert np.array_equal(ts.values, before)


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        ts = TimeSeries(rng.standard_normal((17, 3)) * 1e3, dt=0.01, t0=2.5)
        path = tmp_path / "signal.csv"
        write_csv(ts, path)
        back = read_csv(path)
        assert np.array_equal(back.values, ts.values)
        assert back.t0 == ts.t0
        assert back.dt == pytest.approx(ts.dt, rel=1e-12)

    def test_header(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_csv(TimeSeries(np.zeros((2, 2)), 0.1), path)
        assert path.read_text().splitlines()[0] == "t,u0,u1"

    def test_single_row_needs_dt(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(TimeSeries(np.array([[1.0]]), 0.25), path)
        assert read_csv(path, dt=0.25).dt == 0.25
