import numpy as np
import pytest

import rcbasin.training as training_mod

from rcbasin.errors import DimensionMismatchError, ZeroRangeError
from rcbasin.reservoir import ReservoirSpec, build_reservoir, drive_open_loop
from rcbasin.timeseries import (
    Standardizer,
    TimeSeries,
    fit_standardizer,
    read_csv,
    write_csv,
)
from rcbasin.training import TrainConfig, train_with_mse


def series(values, dt=0.1):
    return TimeSeries(np.asarray(values, dtype=float), dt)


def training_inputs(monkeypatch, signals, eta, seed=0):
    """The noisy inputs ``train_with_mse`` drives with, one array per signal.

    Raw inputs (identity standardizer) and ``n_trans`` 0; each signal but
    its last sample, which is only a target, is driven in one call.
    """
    seen = []

    def spy(res, signal, r0):
        seen.append(np.array(signal))
        return drive_open_loop(res, signal, r0)

    monkeypatch.setattr(training_mod, "drive_open_loop", spy)
    n_in = signals[0].n_components
    res = build_reservoir(ReservoirSpec(n_r=4, mean_degree=2.0, spectral_radius=0.4,
                                        input_strength=1.0, bias_strength=0.5,
                                        leakage=1.0, n_in=n_in, seed=0))
    cfg = TrainConfig(n_trans=0, alpha=1e-6, eta=eta, batch_max_states=100_000, seed=seed)
    train_with_mse(res, signals, cfg, standardizer=Standardizer.identity(n_in))
    return seen


def expected_inputs(signals, eta, rms, seed=0):
    """Each signal plus ``eta * rms`` times its own draws, signal by signal."""
    rng = np.random.default_rng(seed)
    return [(s.values + rng.standard_normal(s.values.shape) * (eta * np.asarray(rms)))[:-1]
            for s in signals]


def assert_inputs_equal(seen, expected):
    assert len(seen) == len(expected)
    for a, b in zip(seen, expected):
        assert a.tobytes() == b.tobytes()


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

    def test_observe(self):
        ts = TimeSeries(np.arange(8.0).reshape(4, 2), dt=0.1)
        assert ts.observe([1]).values[:, 0] == pytest.approx([1.0, 3.0, 5.0, 7.0])


class TestFitStandardizer:
    def test_single_signal_symmetric(self):
        # values [-2, 0, 2] force shift 0, scale 2
        st = fit_standardizer(series([-2.0, 0.0, 2.0]).values)
        assert st.shift[0] == pytest.approx(0.0)
        assert st.scale[0] == pytest.approx(2.0)
        out = st.apply_values(series([-2.0, 0.0, 2.0]).values)
        assert out[:, 0] == pytest.approx([-1.0, 0.0, 1.0])

    def test_two_signal_union(self):
        # union of [0, 2] and [0, 4]: mean 1.5, max abs deviation 2.5
        a, b = series([0.0, 2.0]), series([0.0, 4.0])
        st = fit_standardizer(np.concatenate([a.values, b.values]))
        assert st.shift[0] == pytest.approx(1.5)
        assert st.scale[0] == pytest.approx(2.5)
        assert st.apply_values(a.values)[:, 0] == pytest.approx([-0.6, 0.2])
        assert st.apply_values(b.values)[:, 0] == pytest.approx([-0.6, 1.0])

    def test_constant_component_rejected(self):
        with pytest.raises(ZeroRangeError):
            fit_standardizer(series([5.0, 5.0, 5.0]).values)

    def test_union_statistics_after_apply(self):
        rng = np.random.default_rng(3)
        signals = [rng.normal(2.0, 5.0, size=(40, 3)) for _ in range(4)]
        st = fit_standardizer(np.concatenate(signals))
        union = np.concatenate([st.apply_values(s) for s in signals])
        assert np.abs(union.mean(axis=0)).max() < 1e-12
        assert np.abs(np.abs(union).max(axis=0) - 1.0).max() < 1e-12

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        st = fit_standardizer(rng.uniform(-3, 9, size=(25, 2)))
        probe = TimeSeries(rng.uniform(-100, 100, size=(50, 2)), 0.1)
        back = st.invert_values(st.apply_values(probe.values))
        assert np.abs(back - probe.values).max() <= 1e-12 * st.scale.max()

    def test_identity_standardizer(self):
        st = Standardizer.identity(2)
        probe = TimeSeries(np.array([[3.0, -4.0]]), 0.1)
        assert np.array_equal(st.apply_values(probe.values), probe.values)

    def test_zero_scale_rejected_directly(self):
        with pytest.raises(ZeroRangeError):
            Standardizer(np.zeros(1), np.zeros(1))


class TestComponentRms:
    """The RMS ``train_with_mse`` scales its noise by, per component, pooled
    over every sample of every signal."""

    ETA = 1e-3

    def check(self, monkeypatch, signals, rms):
        assert_inputs_equal(training_inputs(monkeypatch, signals, self.ETA),
                            expected_inputs(signals, self.ETA, [rms]))

    def test_constant(self, monkeypatch):
        self.check(monkeypatch, [series([3.0, 3.0, 3.0])], 3.0)

    def test_two_values(self, monkeypatch):
        self.check(monkeypatch, [series([3.0, 4.0])], np.sqrt(12.5))

    def test_zeros(self, monkeypatch):
        signals = [series([0.0, 0.0, 0.0])]
        assert_inputs_equal(training_inputs(monkeypatch, signals, self.ETA),
                            [np.zeros((2, 1))])

    def test_pooled_over_signals(self, monkeypatch):
        # per sample: sqrt((2 * 1 + 6 * 4) / 8), not the mean of the per-signal RMS
        self.check(monkeypatch, [series([1.0] * 2), series([2.0] * 6)], np.sqrt(26.0 / 8))

    def test_bad_component(self, monkeypatch):
        with pytest.raises(DimensionMismatchError):
            training_inputs(monkeypatch, [series([1.0, 2.0]), TimeSeries(np.ones((3, 2)), 0.1)],
                            self.ETA)


class TestAddTrainingNoise:
    """The white noise ``train_with_mse`` adds to the standardized inputs."""

    def test_zero_eta_identical(self, monkeypatch):
        # the generator still advances, so the draws do not depend on eta
        draws = []

        class Recording(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                draws.append(size)
                return super().standard_normal(size, *args, **kwargs)

        def default_rng(seed=None):
            # numpy's: a generator passes through, a seed becomes Generator(PCG64(seed))
            if isinstance(seed, np.random.Generator):
                return seed
            return Recording(np.random.PCG64(seed))

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        signals = [series([1.0, -2.0, 3.0]), series([0.5, 4.0])]
        assert_inputs_equal(training_inputs(monkeypatch, signals, 0.0),
                            [s.values[:-1] for s in signals])
        # one draw for the stack of both signals: the same stream as one per signal
        assert draws == [(5, 1)]

    def test_zero_rms_component_unchanged(self, monkeypatch):
        values = np.column_stack([np.zeros(100), np.ones(100)])
        (seen,) = training_inputs(monkeypatch, [TimeSeries(values, 0.1)], 0.5)
        assert np.array_equal(seen[:, 0], values[:-1, 0])
        assert not np.array_equal(seen[:, 1], values[:-1, 1])

    def test_empirical_std(self, monkeypatch):
        # eta 1e-3 times RMS 2 and 0.5 over 2e4 samples: each std within 5 percent
        signs = np.where(np.arange(20_000) % 2, 1.0, -1.0)
        values = np.column_stack([2.0 * signs, 0.5 * signs])
        (seen,) = training_inputs(monkeypatch, [TimeSeries(values, 0.1)], 1e-3)
        assert np.std(seen - values[:-1], axis=0) == pytest.approx([2e-3, 5e-4], rel=0.05)

    def test_same_seed_bit_identical(self, monkeypatch):
        signals = [TimeSeries(np.linspace(0, 1, 64)[:, None], 0.1)]
        a = training_inputs(monkeypatch, signals, 1e-2, seed=42)
        b = training_inputs(monkeypatch, signals, 1e-2, seed=42)
        c = training_inputs(monkeypatch, signals, 1e-2, seed=43)
        assert_inputs_equal(a, b)
        assert not np.array_equal(a[0], c[0])

    def test_source_unmodified(self, monkeypatch):
        signal = series([1.0, 2.0, 4.0])
        before = signal.values.copy()
        training_inputs(monkeypatch, [signal], 1.0)
        assert np.array_equal(signal.values, before)


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
        assert read_csv(path).dt == 1.0

    @pytest.mark.parametrize("text, message", [
        ("t,x0\n0.0,1.0\n", "unrecognized header"),
        ("t,u0\n0.0,1.0\n0.1\n", "column count mismatch"),
        ("t,u0\n", "column count mismatch"),
    ])
    def test_malformed_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(path)
